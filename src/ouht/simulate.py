"""Path-level schemes on time grids.

Three schemes:

* exact killed OU: Brownian increments on the tau clock plus a bridge
  crossing probability per interval, so killing is exact in distribution
  given the grid marginals;
* Euler-Maruyama killed OU: sign-check killing only, the naive baseline
  whose killing bias the exact scheme removes;
* drift-implicit Euler radial OU: the singular 1/R drift taken at the end
  of each step (Alfonsi 2005), which keeps every path positive unguarded.

Every kernel fills the time-major out it is handed with the n_intervals
grid rows after the shared start a at time 0: row j holds every path at
times[j + 1].  The Euler kernels step them through one walk in equal
substeps of at most dt per interval.  Each returns one Paths over out.T.
Absorption is stored in the values alone: a killed path reads 0 from the
grid time after its absorption on, as the stopped path X_{t and T0} does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import ProcessParams, check_times, time_change


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
    def from_times(cls, times) -> "TimeGrid":
        """Grid through the given positive times, with 0 prepended."""
        return cls(np.concatenate(([0.0], np.asarray(times, dtype=float))))

    @property
    def n_intervals(self) -> int:
        return self.times.size - 1


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
    times[j + 1]; the shared start a at time 0 is left out.

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


def simulate_killed_ou_exact(
    params: ProcessParams,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_paths: int,
    out: np.ndarray,
) -> Paths:
    """Exact killed-OU paths at the grid times after 0, written into the
    (n_intervals, n_paths) out: each row holds every path at its time.

    The driving Brownian motion is sampled exactly at tau(t_i) and mapped
    back through X = e^{-gamma t} Y.  Within each interval, absorption is
    decided by the Brownian-bridge zero-crossing probability
    exp(-2 y_i y_{i+1} / (tau_{i+1} - tau_i)); if y_{i+1} <= 0 it is certain.
    The joint law of (grid values, killing) is exact for any grid.

    An interval draws its uniforms into the row of out its result goes to,
    which is free until then.  Its proposal (formed over its normals) lives
    in a reused buffer; its crossing probability, then its kill flags, are
    formed in the buffer of the state the proposal replaces.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    times = grid.times
    taus = np.array([time_change(params, t) for t in times])

    # float64 even for an int a; y_next is the proposal y + sqrt(dtau) z
    y = np.full(out.shape[1], params.a, dtype=float)
    y_next = np.empty_like(y)

    for i in range(times.size - 1):
        dtau = taus[i + 1] - taus[i]
        u = out[i]
        rng.standard_normal(out=y_next)
        rng.random(out=u)
        y_next *= math.sqrt(dtau)
        y_next += y
        if dtau > 0.0:  # else tau has stopped in floating point and y_next is y
            # y becomes the crossing probability, read only here.  The clipped
            # exponent is 0, so crossing is certain, when y_next <= 0 and when
            # y = 0: an absorbed path is held at 0.  An exponent past the
            # float range is -inf, whose probability 0 is the right one
            with np.errstate(over="ignore"):
                y *= -2.0
                y *= y_next
                y /= dtau
            np.minimum(y, 0.0, out=y)
            np.exp(y, out=y)
            # kill where u < the crossing probability by multiplying with the
            # 0/1 flag u >= it, formed in y: no branch on the random mask.
            # Adding 0.0 turns the -0.0 of a killed negative proposal to 0.0
            np.greater_equal(u, y, out=y)
            y_next *= y
            y_next += 0.0
        y, y_next = y_next, y
        np.multiply(y, math.exp(-params.gamma * times[i + 1]), out=u)

    return Paths(grid, out.T)


def _euler_walk(params: ProcessParams, grid: TimeGrid, scheme: SchemeConfig, n_paths: int,
                out: np.ndarray):
    """Check n_paths, put a in row 0 of out and return an iterator over the
    substeps: an interval of length delta takes m = ceil(delta/dt) of
    h = delta/m, each handed over as (h, state, row); it reads state and
    writes row, the row of its interval's end."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    out[0] = params.a  # float64 even for an int a

    def substeps():
        state = out[0]
        for i, delta in enumerate(np.diff(grid.times)):
            m = max(1, math.ceil(delta / scheme.dt - 1e-12))
            for _ in range(m):
                yield delta / m, state, out[i]
                state = out[i]

    return substeps()


def euler_ou(
    params: ProcessParams,
    grid: TimeGrid,
    scheme: SchemeConfig,
    rng: np.random.Generator,
    n_paths: int,
    out: np.ndarray,
) -> Paths:
    """Euler-Maruyama killed-OU paths at the grid times after 0, written into
    the (n_intervals, n_paths) out: x += -gamma x h + sqrt(h) z on substeps
    of size <= dt, absorbed at the first substep value <= 0.

    Killing is by sign check only, so intra-step crossings are missed and the
    survival is biased high by O(sqrt(dt)); the exact scheme is the unbiased
    reference.  A substep draws its normals into the row it writes, once it
    has read the state there.
    """
    substeps = _euler_walk(params, grid, scheme, n_paths, out)
    step, alive = np.empty(n_paths), np.empty(n_paths, dtype=bool)

    for h, x, row in substeps:
        # x - gamma x h + sqrt(h) z, floored at 0; an absorbed path stays at 0
        np.greater(x, 0.0, out=alive)
        np.multiply(x, params.gamma, out=step)
        step *= h
        np.subtract(x, step, out=step)
        rng.standard_normal(out=row)
        row *= math.sqrt(h)
        step += row
        np.maximum(step, 0.0, out=step)
        np.multiply(step, alive, out=row)

    return Paths(grid, out.T)


def euler_radial(
    params: ProcessParams,
    grid: TimeGrid,
    scheme: SchemeConfig,
    rng: np.random.Generator,
    n_paths: int,
    out: np.ndarray,
) -> Paths:
    """Drift-implicit Euler radial paths at the grid times after 0, written
    into the (n_intervals, n_paths) out, for dR = (1/R - gamma R) dt + dB on
    substeps of size h <= dt: with y = R + sqrt(h) z and k = 1 + gamma h,
    the step solves k R'^2 - y R' - h = 0 for its positive root

        R' = (y + sqrt(y^2 + 4 k h)) / (2 k),

    so every value is > 0 whenever k > 0, with no guard (Alfonsi 2005).
    For k >= 1/2 a negative y has y^2 <= h z^2, so the sum loses at most a
    few ulp; below that (strongly explosive gamma) it can cancel to 0, and
    the root of a negative y is taken as 2h / (sqrt(y^2 + 4 k h) - y).
    A substep forms y in its one scratch row and the root in the row it
    writes.
    """
    substeps = _euler_walk(params, grid, scheme, n_paths, out)
    y, negative = np.empty(n_paths), None

    for h, r, row in substeps:
        k = 1.0 + params.gamma * h
        if k <= 0.0:
            raise ValueError(
                f"the drift-implicit radial step needs 1 + gamma*h > 0; got gamma = "
                f"{params.gamma:g} with substep h = {h:g} (use a smaller dt)"
            )
        rng.standard_normal(out=y)
        y *= math.sqrt(h)
        y += r
        np.multiply(y, y, out=row)
        row += 4.0 * k * h
        np.sqrt(row, out=row)
        if k >= 0.5:
            row += y
            row *= 0.5 / k
        else:
            # with s = sqrt(y^2 + 4kh), the root is (s + |y|) / (2k) for
            # y >= 0 and 2h / (s + |y|) for y < 0: no cancellation
            if negative is None:
                negative = np.empty(n_paths, dtype=bool)
            np.less(y, 0.0, out=negative)
            np.abs(y, out=y)
            row += y
            np.divide(2.0 * h, row, out=row, where=negative)
            np.logical_not(negative, out=negative)
            np.multiply(row, 0.5 / k, out=row, where=negative)

    return Paths(grid, out.T)
