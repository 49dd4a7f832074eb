"""Path-level schemes on time grids.

Three schemes:

* exact killed OU: Brownian increments on the tau clock plus a bridge
  crossing probability per interval, so killing is exact in distribution
  given the grid marginals;
* Euler-Maruyama killed OU: sign-check killing only, the naive baseline
  whose killing bias the exact scheme removes;
* drift-implicit Euler radial OU: the singular 1/R drift taken at the end
  of each step (Alfonsi 2005), which keeps every path positive unguarded.

Path sets are stored as (n_paths, n_times) arrays; absorbed entries are 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import ProcessParams, time_change


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
class KilledPaths:
    """A set of killed paths on a common grid.

    values[i, j] is path i at times[j], or 0 once absorbed.  killing_index[i]
    is the last grid index at which path i is alive (absorption happened in
    the following interval); -1 means never absorbed on the grid.
    """

    grid: TimeGrid
    values: np.ndarray
    killing_index: np.ndarray

    @property
    def killing_flag(self) -> np.ndarray:
        """True for each path absorbed somewhere on the grid."""
        return self.killing_index >= 0

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def values_at(self, t: float) -> np.ndarray:
        return self.values[:, self.grid.index_of(t)]

    def alive_at(self, t: float) -> np.ndarray:
        j = self.grid.index_of(t)
        return ~self.killing_flag | (self.killing_index >= j)

    def survival_fraction(self, t: float) -> float:
        return float(self.alive_at(t).mean())


@dataclass(eq=False)
class PathSample:
    """An unkilled path set."""

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


def simulate_killed_ou_exact(
    params: ProcessParams,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_paths: int,
) -> KilledPaths:
    """Exact killed-OU paths at the grid times.

    The driving Brownian motion is sampled exactly at tau(t_i) and mapped
    back through X = e^{-gamma t} Y.  Within each interval, absorption is
    decided by the Brownian-bridge zero-crossing probability
    exp(-2 y_i y_{i+1} / (tau_{i+1} - tau_i)); if y_{i+1} <= 0 it is certain.
    The joint law of (grid values, killing) is exact for any grid.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = grid.times
    taus = np.array([time_change(params, t) for t in times])
    n_times = times.size

    values = np.empty((n_paths, n_times))
    values[:, 0] = params.a
    y = np.full(n_paths, params.a)
    alive = np.ones(n_paths, dtype=bool)
    kill_idx = np.full(n_paths, -1, dtype=np.int64)

    for i in range(n_times - 1):
        dtau = taus[i + 1] - taus[i]
        z = rng.standard_normal(n_paths)
        u = rng.random(n_paths)
        y_next = y + math.sqrt(dtau) * z
        # exponent is <= 0 wherever it matters (both endpoints > 0); the
        # clip only silences dead-path garbage
        log_p_cross = np.minimum(-2.0 * y * y_next / dtau, 0.0)
        crossed = (y_next <= 0.0) | (u < np.exp(log_p_cross))
        newly_dead = alive & crossed
        kill_idx[newly_dead] = i
        alive &= ~crossed
        y = y_next
        values[:, i + 1] = np.where(alive, math.exp(-params.gamma * times[i + 1]) * y, 0.0)

    return KilledPaths(grid, values, kill_idx)


def _substep_counts(grid: TimeGrid, dt: float) -> list[int]:
    return [max(1, math.ceil(delta / dt - 1e-12)) for delta in np.diff(grid.times)]


def euler_ou(
    params: ProcessParams,
    grid: TimeGrid,
    scheme: SchemeConfig,
    rng: np.random.Generator,
    n_paths: int,
) -> KilledPaths:
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
    alive = np.ones(n_paths, dtype=bool)
    kill_idx = np.full(n_paths, -1, dtype=np.int64)

    for i, m in enumerate(_substep_counts(grid, scheme.dt)):
        h = (times[i + 1] - times[i]) / m
        sq = math.sqrt(h)
        for _ in range(m):
            z = rng.standard_normal(n_paths)
            x = np.where(alive, x - params.gamma * x * h + sq * z, 0.0)
            newly_dead = alive & (x <= 0.0)
            kill_idx[newly_dead] = i
            alive &= x > 0.0
        values[:, i + 1] = np.where(alive, x, 0.0)

    return KilledPaths(grid, values, kill_idx)


def euler_radial(
    params: ProcessParams,
    grid: TimeGrid,
    scheme: SchemeConfig,
    rng: np.random.Generator,
    n_paths: int,
) -> PathSample:
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

    return PathSample(grid, values)
