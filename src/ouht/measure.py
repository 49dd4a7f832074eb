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
    check_horizon,
    check_times,
    ou_transition,
    sample_ou_exact,
    sample_radial_exact,
    sample_radial_step,
)
from .rng import BLOCK_SIZE, block_sizes, derive_seed, map_blocks, shared_empty, stream
from .simulate import TimeGrid, euler_ou, euler_radial, simulate_killed_ou_exact

@dataclass(frozen=True, eq=False)
class TestFunctional:
    """A bounded test function on (0, inf): indicators, capped monomials, 1.
    Each classmethod checks its arguments and sets the elementwise values
    function, the label and the breakpoints together."""

    __test__ = False  # keep pytest collection away from the Test* name

    values: Callable
    label: str
    breakpoints: tuple[float, ...] = ()  # discontinuities and kinks, for quadrature splitting

    @classmethod
    def constant_one(cls) -> "TestFunctional":
        return cls(np.ones_like, "one")

    @classmethod
    def indicator_above(cls, c: float) -> "TestFunctional":
        c = _threshold(c)
        return cls(lambda x: (x > c).astype(float), f"1(x>{c:g})", (c,))

    @classmethod
    def indicator_below(cls, c: float) -> "TestFunctional":
        c = _threshold(c)
        return cls(lambda x: (x < c).astype(float), f"1(x<{c:g})", (c,))

    @classmethod
    def capped_polynomial(cls, k: int, cap: float) -> "TestFunctional":
        if not (k >= 0 and float(k).is_integer()):
            raise ValueError("polynomial degree must be an integer >= 0")
        k, cap = int(k), float(cap)
        if not (math.isfinite(cap) and cap > 0):
            raise ValueError("cap must be finite and > 0: uncapped polynomials are unbounded")
        return cls(lambda x: np.minimum(x**k, cap), f"min(x^{k},{cap:g})",
                   (cap ** (1.0 / k),) if k > 0 else ())

    def __call__(self, x):
        out = self.values(np.asarray(x, dtype=float))
        return float(out) if out.ndim == 0 else out


def _threshold(c) -> float:
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("indicator threshold must be finite")
    return c


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
# A sampler is called as sampler(params, times, rng, n, out) with ascending
# times and a time-major (len(times), n) float64 out, which only _block
# allocates; it fills row j with the n values at times[j] and returns
# nothing.  The kernels underneath fill the out they are handed with the
# grid rows after time 0, so a sampler hands its out, whose rows are the
# grid times after 0, straight down.  No sampler checks
# its law: run_draws and the commands do, once, before any block.
# Samplers are module-level functions, the Euler ones bound to their
# SchemeConfig by functools.partial(..., scheme=...); pool workers inherit
# their tasks by fork, so neither a sampler nor an integrand needs to pickle.
# They look the process and simulate functions up in this module's globals
# at call time, so a wrapper rebound there sees every call.

def killed_exact(params, times, rng, n, out):
    """X_{t and T0} by the bridge-corrected exact scheme: 0 once absorbed."""
    simulate_killed_ou_exact(params, TimeGrid.from_times(times), rng, n, out)


def killed_euler(params, times, rng, n, out, *, scheme):
    """X_{t and T0} by Euler-Maruyama with sign-check killing: 0 once absorbed."""
    euler_ou(params, TimeGrid.from_times(times), scheme, rng, n, out)


def radial_exact(params, times, rng, n, out):
    """R_t along one path per row: the exact marginal at times[0], then the
    exact transition from each time to the next."""
    sample_radial_exact(params, times[0], rng, size=n, out=out[0])
    for j in range(1, len(times)):
        sample_radial_step(params, out[j - 1], times[j] - times[j - 1], rng, out[j])


def radial_euler(params, times, rng, n, out, *, scheme):
    """R_t along one path per row by the drift-implicit Euler step, which
    stays positive without a guard."""
    euler_radial(params, TimeGrid.from_times(times), scheme, rng, n, out)


def ou_exact(params, times, rng, n, out):
    """Unkilled X_t from the exact marginal, one independent draw per time."""
    for j, t in enumerate(times):
        sample_ou_exact(params, t, rng, size=n, out=out[j])


# --- block-wise estimation -------------------------------------------------
#
# A run is a table of Draws whose blocks all go to map_blocks in one call, in
# table order.  Block j of a draw comes from stream(seed, j) and each draw is
# reduced in its own block order, so neither the worker count nor the table
# order changes a result.  An integrand maps the whole (len(times), n) block
# to the samples being averaged (None averages the draws themselves).  A draw
# names its integrands and its estimates come back under those names; a block
# sends back its BlockStats in the order of the names.

@dataclass(frozen=True)
class Draw:
    """n_paths paths of sampler at times, block j on stream(seed, j).  With
    integrands=None the run returns the (len(times), n_paths) sample; with a
    {name: integrand} dict, {name: estimate}."""

    sampler: Callable
    times: tuple[float, ...]
    n_paths: int
    seed: int
    integrands: dict | None = None


def _block(task):
    sampler, params, times, seed, block, n, integrands, view, _ = task
    out = np.empty((len(times), n)) if view is None else view
    sampler(params, times, stream(seed, block), n, out)
    if integrands is not None:
        return tuple(BlockStats.of(out if g is None else g(out)) for g in integrands.values())


def _reduce(stats, seed):
    n = sum(b.n for b in stats)
    return reduce_blocks(stats, seed=seed) if n >= 2 else MCEstimate(math.nan, math.nan, n, seed)


def run_draws(params: ProcessParams, table: dict, workers: int = 1) -> dict:
    """Every Draw in table (key -> Draw) from one map_blocks call: key -> its
    sample, or its {name: MCEstimate}, reduced block by block so that no
    worker returns more than a few numbers per integrand.  Each draw's times
    pass ou_transition, which names gamma and t, before any block is drawn.
    An estimate needs n_paths >= 2; an integrand that keeps fewer than 2 of
    them (an average over survivors that no path reaches) gets a NaN estimate
    with its count.  A sample is allocated once and each block drawn into its
    columns; with workers > 1 it is in shared memory, which the forked pool
    workers write into, so they send back only estimate blocks' BlockStats."""
    for d in table.values():
        if d.integrands is not None and d.n_paths < 2:
            raise ValueError(f"need at least 2 samples, got {d.n_paths}")
        for t in d.times:
            ou_transition(params, t)
    samples = {key: (shared_empty if workers > 1 else np.empty)((len(d.times), d.n_paths))
               for key, d in table.items() if d.integrands is None}
    tasks = [(d.sampler, params, d.times, d.seed, j, n, d.integrands,
              samples[key][:, j * BLOCK_SIZE:j * BLOCK_SIZE + n] if key in samples else None,
              key)
             for key, d in table.items()
             for j, n in enumerate(block_sizes(d.n_paths))]
    stats = {key: [] for key in table}
    for (*_, key), result in zip(tasks, map_blocks(_block, tasks, workers)):
        if key not in samples:
            stats[key].append(result)
    return {key: samples[key] if key in samples
            else dict(zip(d.integrands, (_reduce(b, d.seed) for b in zip(*stats[key]))))
            for key, d in table.items()}


def _estimate(params, f, sampler, integrand, t, n_paths, seed, workers):
    _check_functional(f)
    return run_draws(params, {0: Draw(sampler, (t,), n_paths, seed, {0: integrand})}, workers)[0][0]


# --- integrands ------------------------------------------------------------
#
# Module-level, bound by partial(integrand, ...).  Each is elementwise
# on a one-time block; at_time hands row j of a multi-time block on.

def at_time(j, integrand, block):
    return integrand(block[j])


def inverse_weighted(params, t, f, r):
    """f(R_t) (a/R_t) e^{-gamma t} on radial draws at t, whose mean is
    E[f(X_t) 1_{t<T0}]."""
    return f(r) * inverse_weight(params, r, t)


def forward_weighted(params, t, f, x):
    """f(X_t) (X_{t and T0}/a) e^{gamma t} on killed draws at t, whose mean
    is E_Q[f(R_t)]; absorbed paths contribute 0."""
    return f(x) * (x * (math.exp(params.gamma * t) / params.a))


def alive(f, x):
    """f(X_t) 1_{t<T0} on killed draws at t."""
    return f(x) * (x > 0.0)


def survivors(f, x):
    """f(X_t) on the killed draws at t that survive to t, whose mean is
    E_P[f(X_t) | t < T0]."""
    return f(x[x > 0.0])


def over(f, r):
    """f(R_t) / R_t on radial draws at t."""
    return f(r) / r


def scaled_reciprocal(c, r):
    """c / R_t on radial draws at t."""
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
    integrand = partial(inverse_weighted, params, t, f)
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
    three disjoint streams, with the delta-method combined stderr.  Fewer
    than 2 survivors of the lhs.n paths drawn raise a ValueError."""

    lhs: MCEstimate
    q_inverse_mean: MCEstimate
    conditional_mean: MCEstimate

    def __post_init__(self):
        if self.conditional_mean.n < 2:
            raise ValueError(f"only {self.conditional_mean.n} surviving paths out of "
                             f"{self.lhs.n}: n_paths too small for a conditional estimate")

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


def conditional_identity_detail(
    params: ProcessParams,
    f: TestFunctional,
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> ConditionalIdentityResult:
    """The conditioning identity for f from three draws on the streams that
    their tags derive from seed: f/X_t, 1/X_t and f on the survivors."""
    _check_functional(f)
    sides = {"conditional-lhs": (radial_exact, partial(over, f)),
             "conditional-qinv": (radial_exact, partial(scaled_reciprocal, 1.0)),
             "conditional-killed": (killed_exact, partial(survivors, f))}
    got = run_draws(params, {tag: Draw(sampler, (t,), n_paths, derive_seed(seed, tag), {tag: g})
                             for tag, (sampler, g) in sides.items()}, workers)
    return ConditionalIdentityResult(*(got[tag][tag] for tag in sides))


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
    tags ("local-martingale", i) that derive their streams from seed, each
    estimating e^{-gamma t}/X_t as "discounted"; the horizon is checked
    first, as the closed form S(t) needs it."""
    times = check_times(times)
    check_horizon(params, times)
    return {("local-martingale", i):
            Draw(radial_exact, (t,), n_paths, derive_seed(seed, "local-martingale", i),
                 {"discounted": partial(scaled_reciprocal, math.exp(-params.gamma * t))})
            for i, t in enumerate(times)}


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
    return [CurvePoint(t=d.times[0], estimate=results[key]["discounted"],
                       closed_form=survival_probability(params, d.times[0]) / params.a)
            for key, d in draws.items()]
