"""Path-level schemes on time grids.

Three schemes:

* exact killed OU: Brownian increments on the tau clock plus a bridge
  crossing probability per interval, so killing is exact in distribution
  given the grid marginals;
* Euler-Maruyama killed OU: sign-check killing only, the naive baseline
  whose killing bias the exact scheme removes;
* drift-implicit Euler radial OU: the singular 1/R drift taken at the end
  of each step (Alfonsi 2005), which keeps every path positive unguarded.

Every scheme returns one Paths record, an (n_paths, n_times) array on its
grid.  Absorption is stored in the values alone: a killed path reads 0 from
the grid time after its absorption on, as the stopped path X_{t and T0} does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import ProcessParams, time_change


def check_times(times) -> tuple[float, ...]:
    """Observation times as a tuple of floats; a ValueError unless there is
    at least one and they are positive, finite and strictly ascending."""
    times = tuple(float(t) for t in times)
    if not times or not all(math.isfinite(t) and t > 0 for t in times) or any(
        b <= a for a, b in zip(times, times[1:])
    ):
        raise ValueError("times must be positive, finite and strictly ascending")
    return times


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Observation times 0 = t_0 < t_1 < ... < t_n."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("grid needs at least the two times 0 and t_1")
        if times[0] != 0.0:
            raise ValueError(f"grid must start at 0, got {times[0]}")
        if not np.all(np.diff(times) > 0):
            raise ValueError("grid times must be strictly increasing")
        if not np.all(np.isfinite(times)):
            raise ValueError("grid times must be finite")

    @classmethod
    def uniform(cls, t_end: float, n_intervals: int) -> "TimeGrid":
        if t_end <= 0 or n_intervals < 1:
            raise ValueError("need t_end > 0 and n_intervals >= 1")
        return cls(np.linspace(0.0, t_end, n_intervals + 1))

    @classmethod
    def from_times(cls, times) -> "TimeGrid":
        """Grid through the given positive times, with 0 prepended."""
        return cls(np.concatenate(([0.0], np.asarray(times, dtype=float))))

    @property
    def n_intervals(self) -> int:
        return self.times.size - 1

    def index_of(self, t: float) -> int:
        i = int(np.searchsorted(self.times, t))
        for j in (i - 1, i):
            if 0 <= j < self.times.size and math.isclose(
                self.times[j], t, rel_tol=1e-12, abs_tol=1e-12
            ):
                return j
        raise ValueError(f"t = {t} is not on the grid")


@dataclass(frozen=True)
class SchemeConfig:
    """The largest Euler substep."""

    dt: float

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")


@dataclass(eq=False)
class Paths:
    """A set of paths on a common grid: values[i, j] is path i at times[j].

    A killed path reads 0 from its absorption on, so a value is > 0 exactly
    while its path is alive; radial paths are > 0 throughout.
    """

    grid: TimeGrid
    values: np.ndarray
    # no step is retried or clamped; kept because benchmarks/traced.py reads them
    retry_count = 0
    clamp_count = 0

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def values_at(self, t: float) -> np.ndarray:
        return self.values[:, self.grid.index_of(t)]

    def survival_fraction(self, t: float) -> float:
        return float(np.mean(self.values_at(t) > 0.0))


def simulate_killed_ou_exact(
    params: ProcessParams,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_paths: int,
) -> Paths:
    """Exact killed-OU paths at the grid times.

    The driving Brownian motion is sampled exactly at tau(t_i) and mapped
    back through X = e^{-gamma t} Y.  Within each interval, absorption is
    decided by the Brownian-bridge zero-crossing probability
    exp(-2 y_i y_{i+1} / (tau_{i+1} - tau_i)); if y_{i+1} <= 0 it is certain.
    The joint law of (grid values, killing) is exact for any grid.
    """
    return Paths(grid, _killed_bridge(params, grid, range(grid.times.size), rng, n_paths).T)


def _killed_bridge(params: ProcessParams, grid: TimeGrid, rows, rng: np.random.Generator,
                  n_paths: int) -> np.ndarray:
    """The bridge-killed values of simulate_killed_ou_exact at the grid
    indices rows (ascending), as a (len(rows), n_paths) array: row k holds
    every path at times[rows[k]].

    Every interval of the grid is stepped, with the same variates whichever
    rows are kept, so a kept row's bytes do not depend on the others.  The
    interval's uniforms, proposal (formed over its normals), crossing
    probability and kill flags live in reused buffers.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = grid.times
    taus = np.array([time_change(params, t) for t in times])
    slot = {i: k for k, i in enumerate(rows)}

    out = np.empty((len(slot), n_paths))
    if 0 in slot:
        out[slot[0]] = params.a
    # float64 even for an int a; y_next is the proposal y + sqrt(dtau) z
    y = np.full(n_paths, params.a, dtype=float)
    u, y_next, p_cross = (np.empty_like(y) for _ in range(3))
    keep = np.empty(n_paths, dtype=bool)

    for i in range(times.size - 1):
        dtau = taus[i + 1] - taus[i]
        rng.standard_normal(out=y_next)
        rng.random(out=u)
        y_next *= math.sqrt(dtau)
        y_next += y
        # the clipped exponent is 0, so crossing is certain, when y_next <= 0
        # and when y = 0: an absorbed path is held at 0
        np.multiply(y, -2.0, out=p_cross)
        p_cross *= y_next
        p_cross /= dtau
        np.minimum(p_cross, 0.0, out=p_cross)
        np.exp(p_cross, out=p_cross)
        # kill where u < p_cross by a multiply, with no branch on the random
        # mask; adding 0.0 turns the -0.0 of a killed negative proposal to 0.0
        np.greater_equal(u, p_cross, out=keep)
        y_next *= keep
        y_next += 0.0
        y, y_next = y_next, y
        if i + 1 in slot:
            np.multiply(y, math.exp(-params.gamma * times[i + 1]), out=out[slot[i + 1]])

    return out


def _substep_counts(grid: TimeGrid, dt: float) -> list[int]:
    return [max(1, math.ceil(delta / dt - 1e-12)) for delta in np.diff(grid.times)]


def euler_ou(
    params: ProcessParams,
    grid: TimeGrid,
    scheme: SchemeConfig,
    rng: np.random.Generator,
    n_paths: int,
) -> Paths:
    """Euler-Maruyama killed OU: x += -gamma x h + sqrt(h) z on substeps of
    size <= dt, absorbed at the first substep value <= 0.

    Killing is by sign check only, so intra-step crossings are missed and the
    survival is biased high by O(sqrt(dt)); the exact scheme is the unbiased
    reference.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = grid.times
    n_times = times.size
    values = np.empty((n_paths, n_times))
    values[:, 0] = params.a
    x = np.full(n_paths, params.a)

    for i, m in enumerate(_substep_counts(grid, scheme.dt)):
        h = (times[i + 1] - times[i]) / m
        sq = math.sqrt(h)
        for _ in range(m):
            z = rng.standard_normal(n_paths)
            # a step to <= 0 absorbs the path at 0, where it stays
            x = np.where(x > 0.0, np.maximum(x - params.gamma * x * h + sq * z, 0.0), 0.0)
        values[:, i + 1] = x

    return Paths(grid, values)


def euler_radial(
    params: ProcessParams,
    grid: TimeGrid,
    scheme: SchemeConfig,
    rng: np.random.Generator,
    n_paths: int,
) -> Paths:
    """Drift-implicit Euler for dR = (1/R - gamma R) dt + dB on substeps of
    size h <= dt: with y = R + sqrt(h) z and k = 1 + gamma h, the step solves
    k R'^2 - y R' - h = 0 for its positive root

        R' = (y + sqrt(y^2 + 4 k h)) / (2 k),

    so every value is > 0 whenever k > 0, with no guard (Alfonsi 2005).
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = grid.times
    values = np.empty((n_paths, times.size))
    values[:, 0] = params.a
    # float64 even for an int a; y is scratch for R + sqrt(h) z
    r = np.full(n_paths, params.a, dtype=float)
    y = np.empty_like(r)

    for i, m in enumerate(_substep_counts(grid, scheme.dt)):
        h = (times[i + 1] - times[i]) / m
        k = 1.0 + params.gamma * h
        if k <= 0.0:
            raise ValueError(
                f"the drift-implicit radial step needs 1 + gamma*h > 0; got gamma = "
                f"{params.gamma:g} with substep h = {h:g} (use a smaller dt)"
            )
        sq, c, inv_2k = math.sqrt(h), 4.0 * k * h, 0.5 / k
        for _ in range(m):
            rng.standard_normal(out=y)
            y *= sq
            y += r
            np.multiply(y, y, out=r)
            r += c
            np.sqrt(r, out=r)
            r += y
            r *= inv_2k
        values[:, i + 1] = r

    return Paths(grid, values)
