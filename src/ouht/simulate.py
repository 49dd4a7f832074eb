"""Path-level schemes on time grids.

Three schemes:

* exact killed OU: Brownian increments on the tau clock plus a bridge
  crossing probability per interval, so killing is exact in distribution
  given the grid marginals;
* Euler-Maruyama killed OU: sign-check killing only, the naive baseline
  whose killing bias the exact scheme removes;
* Euler-Maruyama radial OU: the singular 1/R drift with a retry-then-clamp
  positivity guard.

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
    """Euler step size, substep retry depth, and the positivity backstop."""

    dt: float
    max_substep_depth: int = 4
    positivity_floor: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if self.max_substep_depth < 0:
            raise ValueError("max_substep_depth must be >= 0")
        if not (math.isfinite(self.positivity_floor) and self.positivity_floor > 0):
            raise ValueError("positivity_floor must be finite and > 0")


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
    """An unkilled path set plus positivity-guard telemetry."""

    grid: TimeGrid
    values: np.ndarray
    retry_count: int = 0
    clamp_count: int = 0

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


def _radial_step(r, out, noise, h, params, scheme, rng, depth, telemetry):
    """One Euler step of dR = (1/R - gamma R) dt + dB for the paths in r,
    written into out; noise is scratch of the same size, r is left as is.

    Proposals at or below the positivity floor are redone as two half steps
    (fresh noise), up to max_substep_depth, then clamped to the floor.
    """
    # r + (1/r - gamma r) h + sqrt(h) z, in that operation order
    np.divide(1.0, r, out=out)
    np.multiply(r, params.gamma, out=noise)
    out -= noise
    out *= h
    out += r
    rng.standard_normal(out=noise)
    noise *= math.sqrt(h)
    out += noise
    bad = out <= scheme.positivity_floor
    n_bad = int(np.count_nonzero(bad))
    if n_bad == 0:
        return
    if depth >= scheme.max_substep_depth:
        telemetry[1] += n_bad
        out[bad] = scheme.positivity_floor
        return
    telemetry[0] += n_bad
    sub = r[bad]  # a copy: it takes the second half step's result
    half, scratch = np.empty_like(sub), np.empty_like(sub)
    _radial_step(sub, half, scratch, h / 2.0, params, scheme, rng, depth + 1, telemetry)
    _radial_step(half, sub, scratch, h / 2.0, params, scheme, rng, depth + 1, telemetry)
    out[bad] = sub


def euler_radial(
    params: ProcessParams,
    grid: TimeGrid,
    scheme: SchemeConfig,
    rng: np.random.Generator,
    n_paths: int,
) -> PathSample:
    """Euler-Maruyama for the radial process; output is strictly positive."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if scheme.positivity_floor >= params.a:
        raise ValueError(
            f"positivity_floor must lie in (0, a); got {scheme.positivity_floor} with a = {params.a}"
        )
    times = grid.times
    values = np.empty((n_paths, times.size))
    values[:, 0] = params.a
    # each substep writes into nxt, which then swaps with r; float64 even for an int a
    r = np.full(n_paths, params.a, dtype=float)
    nxt, noise = np.empty_like(r), np.empty_like(r)
    telemetry = [0, 0]  # [retries, clamps]

    for i, m in enumerate(_substep_counts(grid, scheme.dt)):
        h = (times[i + 1] - times[i]) / m
        for _ in range(m):
            _radial_step(r, nxt, noise, h, params, scheme, rng, 0, telemetry)
            r, nxt = nxt, r
        values[:, i + 1] = r

    return PathSample(grid, values, retry_count=telemetry[0], clamp_count=telemetry[1])
