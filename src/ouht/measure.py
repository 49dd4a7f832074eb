"""Radon-Nikodym weights between the killed OU law and the radial OU law,
and the Monte Carlo estimators that transport expectations across them.

With P the OU law killed at 0 and Q the radial law (both started at a):

    forward:  dQ/dP at time t   = (X_{t and T0} / a) e^{gamma t}   (0 once absorbed)
    inverse:  1_{t<T0} dP       = (a / X_t) e^{-gamma t} dQ

so bounded killed-OU expectations can be estimated from exact radial draws
and radial expectations from killed-OU paths.  Test functionals are bounded
by construction: the inverse weight carries a 1/X_t whose variance is finite
only against bounded integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .density import survival_probability
from .harness import BlockStats, MCEstimate, reduce_blocks, sigma_gap
from .process import (
    ProcessParams,
    ou_transition,
    sample_ou_exact,
    sample_radial_exact,
    sample_radial_step,
)
from .rng import BLOCK_SIZE, block_sizes, derive_seed, map_blocks, stream
from .simulate import (TimeGrid, _killed_bridge, check_times, euler_ou, euler_radial,
                       simulate_killed_ou_exact)

_KINDS = ("constant_one", "indicator_above", "indicator_below", "capped_polynomial")


@dataclass(frozen=True)
class TestFunctional:
    """A bounded test function on (0, inf): indicators, capped monomials, 1."""

    __test__ = False  # keep pytest collection away from the Test* name

    kind: str
    c: float | None = None
    k: int | None = None
    cap: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.kind in ("indicator_above", "indicator_below"):
            if self.c is None or not math.isfinite(self.c):
                raise ValueError("indicator threshold must be finite")
        if self.kind == "capped_polynomial":
            if self.k is None or self.k < 0 or self.k != int(self.k):
                raise ValueError("polynomial degree must be an integer >= 0")
            if self.cap is None or not (math.isfinite(self.cap) and self.cap > 0):
                raise ValueError("cap must be finite and > 0: uncapped polynomials are unbounded")

    @classmethod
    def constant_one(cls) -> "TestFunctional":
        return cls("constant_one")

    @classmethod
    def indicator_above(cls, c: float) -> "TestFunctional":
        return cls("indicator_above", c=float(c))

    @classmethod
    def indicator_below(cls, c: float) -> "TestFunctional":
        return cls("indicator_below", c=float(c))

    @classmethod
    def capped_polynomial(cls, k: int, cap: float) -> "TestFunctional":
        return cls("capped_polynomial", k=int(k), cap=float(cap))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant_one":
            out = np.ones_like(x)
        elif self.kind == "indicator_above":
            out = (x > self.c).astype(float)
        elif self.kind == "indicator_below":
            out = (x < self.c).astype(float)
        else:
            out = np.minimum(x**self.k, self.cap)
        return float(out) if out.ndim == 0 else out

    def breakpoints(self) -> tuple[float, ...]:
        """Discontinuity/kink locations, for quadrature splitting."""
        if self.kind in ("indicator_above", "indicator_below"):
            return (self.c,)
        if self.kind == "capped_polynomial" and self.k > 0:
            return (self.cap ** (1.0 / self.k),)
        return ()

    def label(self) -> str:
        if self.kind == "constant_one":
            return "one"
        if self.kind == "capped_polynomial":
            return f"min(x^{self.k},{self.cap:g})"
        op = ">" if self.kind == "indicator_above" else "<"
        return f"1(x{op}{self.c:g})"


def default_functional_suite() -> tuple[TestFunctional, ...]:
    return (
        TestFunctional.constant_one(),
        TestFunctional.indicator_above(1.0),
        TestFunctional.indicator_below(0.5),
        TestFunctional.capped_polynomial(1, 10.0),
    )


def inverse_weight(params: ProcessParams, r_value, t: float):
    """(a / r) e^{-gamma t} for r > 0."""
    r = np.asarray(r_value, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r_value must be > 0")
    out = (params.a / r) * math.exp(-params.gamma * float(t))
    return float(out) if out.ndim == 0 else out


# --- terminal samplers -----------------------------------------------------
#
# A sampler is called as sampler(params, times, rng, n, out=None) with
# ascending times and returns a time-major (len(times), n) array whose row j
# holds the n values at times[j], and nothing else; given out, it writes into
# it and returns it.  Samplers are module-level functions, the Euler ones
# bound to their SchemeConfig by functools.partial(..., scheme=...), so that
# tasks pickle.  They look the process and simulate functions up in this
# module's globals at call time, so a wrapper rebound there sees every call.

def killed_exact(params, times, rng, n, out=None):
    """X_{t and T0} by the bridge-corrected exact scheme: 0 once absorbed.
    Without out, the rows after time 0 of simulate_killed_ou_exact's paths
    (the layer benchmarks/traced.py times); with out, the same kernel writes
    only those rows, straight into out."""
    _law_domain(params, times)
    grid = TimeGrid.from_times(times)
    if out is None:
        return simulate_killed_ou_exact(params, grid, rng, n).values.T[1:]
    return _killed_bridge(params, grid, range(1, grid.times.size), rng, n, out)


def killed_euler(params, times, rng, n, out=None, *, scheme):
    """X_{t and T0} by Euler-Maruyama with sign-check killing: 0 once absorbed."""
    _law_domain(params, times)
    return euler_ou(params, TimeGrid.from_times(times), scheme, rng, n, out).values.T


def _law_domain(params, times):
    """ou_transition at every time: raises before any draw, naming the
    caller's gamma and t, where exp(-2 gamma t), and with it the second
    moment of every law sampled here, overflows."""
    for t in times:
        ou_transition(params, t)


def radial_exact(params, times, rng, n, out=None):
    """R_t along one path per row: the exact marginal at times[0], then the
    exact transition from each time to the next."""
    _law_domain(params, times)
    out = np.empty((len(times), n)) if out is None else out
    sample_radial_exact(params, times[0], rng, size=n, out=out[0])
    for j in range(1, len(times)):
        sample_radial_step(params, out[j - 1], times[j] - times[j - 1], rng, out[j])
    return out


def radial_euler(params, times, rng, n, out=None, *, scheme):
    """R_t along one path per row by the drift-implicit Euler step, which
    stays positive without a guard."""
    _law_domain(params, times)
    return euler_radial(params, TimeGrid.from_times(times), scheme, rng, n, out).values.T


def ou_exact(params, times, rng, n, out=None):
    """Unkilled X_t from the exact marginal, one independent draw per time."""
    out = np.empty((len(times), n)) if out is None else out
    for j, t in enumerate(times):
        out[j] = sample_ou_exact(params, t, rng, size=n)
    return out


def survival_flags(params, times, rng, n, out=None):
    """1.0 for each bridge-corrected killed path (16 intervals) alive at t;
    a single time only.  Only the last of the 17 grid rows is kept."""
    (t,) = times
    flags = _killed_bridge(params, TimeGrid.uniform(t, 16), (16,), rng, n, out)
    np.greater(flags, 0.0, out=flags)
    return flags


# --- block-wise estimation -------------------------------------------------
#
# A run is a table of Draws whose blocks all go to map_blocks in one call, in
# table order.  Block j of a draw comes from stream(seed, j) and each draw is
# reduced in its own block order, so neither the worker count nor the table
# order changes a result.  An integrand maps the whole (len(times), n) block
# to the samples being averaged (None averages the draws themselves).

@dataclass(frozen=True)
class Draw:
    """n_paths paths of sampler at times, block j on stream(seed, j).  With
    integrands=None the run returns the (len(times), n_paths) sample; with a
    tuple, one estimate per integrand, and () draws nothing."""

    sampler: Callable
    times: tuple[float, ...]
    n_paths: int
    seed: int
    integrands: tuple | None = None


class _Columns:
    """A block's columns of its draw's sample.  A serial block draws straight
    into them; sent to a pool worker, this pickles empty, so the worker draws
    into an array of its own and run_draws copies it in."""

    def __init__(self, view=None):
        self.view = view

    def __reduce__(self):
        return _Columns, ()


def _block(task):
    sampler, params, times, seed, block, n, integrands, columns, _ = task
    rng = stream(seed, block)
    if integrands is not None:
        draws = sampler(params, times, rng, n)
        return tuple(BlockStats.of(draws if g is None else g(draws)) for g in integrands)
    if columns.view is None:
        return sampler(params, times, rng, n)
    sampler(params, times, rng, n, out=columns.view)
    return None  # drawn in place: nothing to send back


def _reduce(stats, seed):
    n = sum(b.n for b in stats)
    return reduce_blocks(stats, seed=seed) if n >= 2 else MCEstimate(math.nan, math.nan, n, seed)


def run_draws(params: ProcessParams, table: dict, workers: int = 1) -> dict:
    """Every Draw in table (key -> Draw) from one map_blocks call: key -> its
    sample, or its tuple of MCEstimates, reduced block by block so that no
    worker returns more than a few numbers per integrand.  An estimate needs
    n_paths >= 2; an integrand that keeps fewer than 2 of them (an average
    over survivors that no path reaches) gets a NaN estimate with its count.
    A sample is allocated once and its blocks are written into it."""
    for d in table.values():
        if d.integrands is not None and d.n_paths < 2:
            raise ValueError(f"need at least 2 samples, got {d.n_paths}")
    samples = {key: np.empty((len(d.times), d.n_paths))
               for key, d in table.items() if d.integrands is None}
    tasks = [(d.sampler, params, d.times, d.seed, j, n, d.integrands,
              _Columns(samples[key][:, j * BLOCK_SIZE:j * BLOCK_SIZE + n]) if key in samples
              else None, key)
             for key, d in table.items() if d.integrands != ()
             for j, n in enumerate(block_sizes(d.n_paths))]
    stats = {key: [] for key in table}
    for (*_, columns, key), result in zip(tasks, map_blocks(_block, tasks, workers)):
        if columns is None:
            stats[key].append(result)
        elif result is not None:  # drawn in a pool worker
            columns.view[...] = result
    return {key: samples[key] if key in samples
            else tuple(_reduce(block_stats, d.seed) for block_stats in zip(*stats[key]))
            for key, d in table.items()}


def _estimate(params, f, sampler, integrand, t, n_paths, seed, workers):
    _check_functional(f)
    return run_draws(params, {0: Draw(sampler, (t,), n_paths, seed, (integrand,))}, workers)[0][0]


# --- integrands ------------------------------------------------------------
#
# Module-level, so that partial(integrand, ...) pickles.  Each is elementwise
# on a one-time block; at_time hands row j of a multi-time block on.

def at_time(j, integrand, block):
    return integrand(block[j])


def inverse_weighted(params, t, f, weight_scale, r):
    """f(R_t) (a/R_t) e^{-gamma t} times weight_scale on radial draws at t;
    at weight_scale 1 its mean is E[f(X_t) 1_{t<T0}]."""
    vals = f(r) * inverse_weight(params, r, t)
    return vals * weight_scale if weight_scale != 1.0 else vals


def forward_weighted(params, t, f, x):
    """f(X_t) (X_{t and T0}/a) e^{gamma t} on killed draws at t, whose mean
    is E_Q[f(R_t)]; absorbed paths contribute 0."""
    return f(x) * (x * (math.exp(params.gamma * t) / params.a))


def alive(f, x):
    """f(X_t) 1_{t<T0} on killed draws at t."""
    return f(x) * (x > 0.0)


def _survivors(f, x):
    return f(x[x > 0.0])


def _over(f, r):
    return f(r) / r


def _scaled_reciprocal(c, r):
    return c / r


def _check_functional(f) -> None:
    if not isinstance(f, TestFunctional):
        raise TypeError(
            "estimators only accept the bounded TestFunctional suite; "
            f"got {type(f).__name__}"
        )


def estimate_killed_expectation_via_Q(
    params: ProcessParams,
    f: TestFunctional,
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """E[f(X_t) 1_{t<T0}] estimated from exact radial draws:
    average of f(R_t) (a/R_t) e^{-gamma t}."""
    integrand = partial(inverse_weighted, params, t, f, 1.0)
    return _estimate(params, f, radial_exact, integrand, t, n_paths, seed, workers)


def estimate_killed_expectation_direct(
    params: ProcessParams,
    f: TestFunctional,
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """E[f(X_t) 1_{t<T0}] by plain killed-OU simulation (the unweighted side
    of the transport identity)."""
    return _estimate(params, f, killed_exact, partial(alive, f), t, n_paths, seed, workers)


def estimate_Q_expectation_via_P(
    params: ProcessParams,
    f: TestFunctional,
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """E_Q[f(R_t)] estimated from killed-OU paths: average of
    f(X_t) (X_{t and T0}/a) e^{gamma t}; absorbed paths contribute 0."""
    integrand = partial(forward_weighted, params, t, f)
    return _estimate(params, f, killed_exact, integrand, t, n_paths, seed, workers)


def estimate_radial_expectation_direct(
    params: ProcessParams,
    f: TestFunctional,
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """E_Q[f(R_t)] by exact radial sampling (comparator for the weighted
    killed-OU estimator)."""
    return _estimate(params, f, radial_exact, f, t, n_paths, seed, workers)


@dataclass(frozen=True)
class ConditionalIdentityResult:
    """Both sides of E_Q[f/X_t] = E_Q[1/X_t] E_P[f | t < T0], estimated on
    three disjoint streams, with the delta-method combined stderr."""

    lhs: MCEstimate
    q_inverse_mean: MCEstimate
    conditional_mean: MCEstimate
    n_survivors: int

    @property
    def rhs(self) -> float:
        return self.q_inverse_mean.mean * self.conditional_mean.mean

    @property
    def combined_stderr(self) -> float:
        return math.sqrt(
            self.lhs.stderr**2
            + (self.conditional_mean.mean * self.q_inverse_mean.stderr) ** 2
            + (self.q_inverse_mean.mean * self.conditional_mean.stderr) ** 2
        )

    @property
    def gap_sigma(self) -> float:
        return sigma_gap(self.lhs.mean, self.rhs, self.combined_stderr)


def conditional_draws(fs: tuple[TestFunctional, ...], t: float, n_paths: int,
                      seed: int) -> dict:
    """The draws behind conditional_identities, keyed by the tag that derives
    each stream from seed: the left-hand side, E_Q[1/X_t] and the survivors,
    each drawn once and shared by every f in fs."""
    for f in fs:
        _check_functional(f)
    sides = {"conditional-lhs": (radial_exact, [partial(_over, f) for f in fs]),
             "conditional-qinv": (radial_exact, [partial(_scaled_reciprocal, 1.0)] if fs else []),
             "conditional-killed": (killed_exact, [partial(_survivors, f) for f in fs])}
    return {tag: Draw(sampler, (t,), n_paths, derive_seed(seed, tag), tuple(integrands))
            for tag, (sampler, integrands) in sides.items()}


def conditional_results(draws: dict, results: dict) -> tuple[ConditionalIdentityResult, ...]:
    """Both sides of the conditioning identity for every f, read off the
    run_draws results of conditional_draws.  A ValueError names the survivor
    count when fewer than 2 paths survive to t."""
    lhs, q_inv, conds = (results[tag] for tag in draws)
    if conds and conds[0].n < 2:
        raise ValueError(f"only {conds[0].n} surviving paths out of "
                         f"{draws['conditional-killed'].n_paths}: "
                         "n_paths too small for a conditional estimate")
    return tuple(
        ConditionalIdentityResult(lhs=l, q_inverse_mean=q_inv[0], conditional_mean=c,
                                  n_survivors=c.n)
        for l, c in zip(lhs, conds)
    )


def conditional_identities(
    params: ProcessParams,
    fs: tuple[TestFunctional, ...],
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> tuple[ConditionalIdentityResult, ...]:
    """Both sides of the conditioning identity for every f in fs, from the
    three draws of conditional_draws in one run."""
    draws = conditional_draws(fs, t, n_paths, seed)
    return conditional_results(draws, run_draws(params, draws, workers))


def conditional_identity_detail(
    params: ProcessParams,
    f: TestFunctional,
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> ConditionalIdentityResult:
    return conditional_identities(params, (f,), t, n_paths, seed, workers)[0]


def conditional_identity_gap(
    params: ProcessParams,
    f: TestFunctional,
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> float:
    """Gap between the two sides of the conditioning identity, in units of
    their combined standard error."""
    return conditional_identity_detail(params, f, t, n_paths, seed, workers).gap_sigma


@dataclass(frozen=True)
class CurvePoint:
    t: float
    estimate: MCEstimate
    closed_form: float


def curve_draws(params: ProcessParams, times, n_paths: int, seed: int) -> dict:
    """The draws behind local_martingale_curve, one per time, keyed by the
    tags ("local-martingale", i) that derive their streams from seed."""
    return {("local-martingale", i):
            Draw(radial_exact, (t,), n_paths, derive_seed(seed, "local-martingale", i),
                 (partial(_scaled_reciprocal, math.exp(-params.gamma * t)),))
            for i, t in enumerate(check_times(times))}


def local_martingale_curve(
    params: ProcessParams,
    times,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> list[CurvePoint]:
    """m(t) = E_Q[(1/X_t) e^{-gamma t}] by exact radial sampling, with the
    closed-form overlay S(t)/a.

    m decreases strictly from its limit 1/a at t = 0+: the expectation of
    this local martingale is not constant, which is exactly what makes it
    strict.
    """
    draws = curve_draws(params, times, n_paths, seed)
    results = run_draws(params, draws, workers)
    return [CurvePoint(t=d.times[0], estimate=results[key][0],
                       closed_form=survival_probability(params, d.times[0]) / params.a)
            for key, d in draws.items()]
