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
grid; the Euler schemes leave out the shared start column a, as they write
each later grid time straight into their caller's rows.  Absorption is
stored in the values alone: a killed path reads 0 from the grid time after
its absorption on, as the stopped path X_{t and T0} does.
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
        if times.ndim != 1 or times[:1].tolist() != [0.0]:
            raise ValueError("grid must be one row of times starting at 0")
        check_times(times[1:])

    @classmethod
    def uniform(cls, t_end: float, n_intervals: int) -> "TimeGrid":
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
    """A set of paths on a common grid: values[i, j] is path i at
    times[j + start], where start is 0 when every grid time is stored and 1
    when the shared start a at time 0 is left out (the Euler schemes).

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

    @property
    def start(self) -> int:
        return self.grid.times.size - self.values.shape[1]

    def values_at(self, t: float) -> np.ndarray:
        j = self.grid.index_of(t) - self.start
        if j < 0:
            raise ValueError(f"t = {t} is the shared start, which these paths leave out")
        return self.values[:, j]

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
                  n_paths: int, out: np.ndarray | None = None) -> np.ndarray:
    """The bridge-killed values of simulate_killed_ou_exact at the grid
    indices rows (ascending), as a (len(rows), n_paths) array: row k holds
    every path at times[rows[k]].  Written into out when it is given.

    Every interval of the grid is stepped, with the same variates whichever
    rows are kept, so a kept row's bytes do not depend on the others.  The
    interval's uniforms and proposal (formed over its normals) live in reused
    buffers; its crossing probability, then its kill flags, are formed in the
    buffer of the state the proposal replaces.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = grid.times
    taus = np.array([time_change(params, t) for t in times])
    slot = {i: k for k, i in enumerate(rows)}

    if out is None:
        out = np.empty((len(slot), n_paths))
    if 0 in slot:
        out[slot[0]] = params.a
    # float64 even for an int a; y_next is the proposal y + sqrt(dtau) z
    y = np.full(n_paths, params.a, dtype=float)
    u, y_next = np.empty_like(y), np.empty_like(y)

    for i in range(times.size - 1):
        dtau = taus[i + 1] - taus[i]
        rng.standard_normal(out=y_next)
        rng.random(out=u)
        y_next *= math.sqrt(dtau)
        y_next += y
        # y becomes the crossing probability, read only here.  The clipped
        # exponent is 0, so crossing is certain, when y_next <= 0 and when
        # y = 0: an absorbed path is held at 0
        y *= -2.0
        y *= y_next
        y /= dtau
        np.minimum(y, 0.0, out=y)
        np.exp(y, out=y)
        # kill where u < the crossing probability by multiplying with the 0/1
        # flag u >= it, formed in y: no branch on the random mask.  Adding 0.0
        # turns the -0.0 of a killed negative proposal to 0.0
        np.greater_equal(u, y, out=y)
        y_next *= y
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
    out: np.ndarray | None = None,
) -> Paths:
    """Euler-Maruyama killed OU: x += -gamma x h + sqrt(h) z on substeps of
    size <= dt, absorbed at the first substep value <= 0.

    Killing is by sign check only, so intra-step crossings are missed and the
    survival is biased high by O(sqrt(dt)); the exact scheme is the unbiased
    reference.

    Row i of out (allocated when not given) receives times[i + 1]; the
    shared start a is not stored.  A substep draws its normals into the row
    it writes, once it has read the state there.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = grid.times
    if out is None:
        out = np.empty((grid.n_intervals, n_paths))
    out[0] = params.a  # the state until the first substep overwrites it
    x, step = out[0], np.empty(n_paths)
    alive = np.empty(n_paths, dtype=bool)

    for i, m in enumerate(_substep_counts(grid, scheme.dt)):
        h = (times[i + 1] - times[i]) / m
        sq = math.sqrt(h)
        row = out[i]
        for _ in range(m):
            # x - gamma x h + sqrt(h) z, floored at 0; an absorbed path stays at 0
            np.greater(x, 0.0, out=alive)
            np.multiply(x, params.gamma, out=step)
            step *= h
            np.subtract(x, step, out=step)
            rng.standard_normal(out=row)
            row *= sq
            step += row
            np.maximum(step, 0.0, out=step)
            np.multiply(step, alive, out=row)
            x = row

    return Paths(grid, out.T)


def euler_radial(
    params: ProcessParams,
    grid: TimeGrid,
    scheme: SchemeConfig,
    rng: np.random.Generator,
    n_paths: int,
    out: np.ndarray | None = None,
) -> Paths:
    """Drift-implicit Euler for dR = (1/R - gamma R) dt + dB on substeps of
    size h <= dt: with y = R + sqrt(h) z and k = 1 + gamma h, the step solves
    k R'^2 - y R' - h = 0 for its positive root

        R' = (y + sqrt(y^2 + 4 k h)) / (2 k),

    so every value is > 0 whenever k > 0, with no guard (Alfonsi 2005).
    For k >= 1/2 a negative y has y^2 <= h z^2, so the sum loses at most a
    few ulp; below that (strongly explosive gamma) it can cancel to 0, and
    the root of a negative y is taken as 2h / (sqrt(y^2 + 4 k h) - y).

    Row i of out (allocated when not given) receives times[i + 1]; the
    shared start a is not stored.  A substep forms y in its one scratch row
    and the root in the row it writes.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = grid.times
    if out is None:
        out = np.empty((grid.n_intervals, n_paths))
    out[0] = params.a  # float64 even for an int a; the state until the first substep
    r, y = out[0], np.empty(n_paths)

    for i, m in enumerate(_substep_counts(grid, scheme.dt)):
        h = (times[i + 1] - times[i]) / m
        k = 1.0 + params.gamma * h
        if k <= 0.0:
            raise ValueError(
                f"the drift-implicit radial step needs 1 + gamma*h > 0; got gamma = "
                f"{params.gamma:g} with substep h = {h:g} (use a smaller dt)"
            )
        sq, c, inv_2k = math.sqrt(h), 4.0 * k * h, 0.5 / k
        negative = None if k >= 0.5 else np.empty(n_paths, dtype=bool)
        row = out[i]
        for _ in range(m):
            rng.standard_normal(out=y)
            y *= sq
            y += r
            np.multiply(y, y, out=row)
            row += c
            np.sqrt(row, out=row)
            if negative is None:
                row += y
                row *= inv_2k
            else:
                # with s = sqrt(y^2 + 4kh), the root is (s + |y|) / (2k) for
                # y >= 0 and 2h / (s + |y|) for y < 0: no cancellation
                np.less(y, 0.0, out=negative)
                np.abs(y, out=y)
                row += y
                np.divide(2.0 * h, row, out=row, where=negative)
                np.logical_not(negative, out=negative)
                np.multiply(row, inv_2k, out=row, where=negative)
            r = row

    return Paths(grid, out.T)
