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

import numpy as np

from .density import survival_probability
from .harness import BlockStats, MCEstimate, reduce_blocks, sigma_gap
from .process import (
    ProcessParams,
    radial_transition,
    sample_ou_exact,
    sample_radial_exact,
    sample_radial_step,
)
from .rng import block_sizes, derive_seed, map_blocks, stream
from .simulate import KilledPaths, TimeGrid, euler_ou, euler_radial, simulate_killed_ou_exact

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


def forward_weight(params: ProcessParams, paths: KilledPaths, t: float) -> np.ndarray:
    """(X_{t and T0} / a) e^{gamma t} per path; 0 for paths absorbed by t."""
    x = paths.values_at(t)  # already 0 after absorption
    return x * (math.exp(params.gamma * t) / params.a)


def inverse_weight(params: ProcessParams, r_value, t: float):
    """(a / r) e^{-gamma t} for r > 0."""
    r = np.asarray(r_value, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r_value must be > 0")
    out = (params.a / r) * math.exp(-params.gamma * float(t))
    return float(out) if out.ndim == 0 else out


# --- terminal samplers -----------------------------------------------------
#
# A sampler is called as sampler(params, times, rng, n) with ascending times
# and returns an (n, len(times)) array whose column j holds the values at
# times[j], and nothing else.  Samplers are module-level functions, the
# Euler ones bound to their SchemeConfig by functools.partial(..., scheme=...),
# so that tasks pickle.  They look the process and simulate functions up in
# this module's globals at call time, so a wrapper rebound there sees every
# call.

def killed_exact(params, times, rng, n):
    """X_{t and T0} by the bridge-corrected exact scheme: 0 once absorbed."""
    return simulate_killed_ou_exact(params, TimeGrid.from_times(times), rng, n).values[:, 1:]


def killed_euler(params, times, rng, n, *, scheme):
    """X_{t and T0} by Euler-Maruyama with sign-check killing: 0 once absorbed."""
    return euler_ou(params, TimeGrid.from_times(times), scheme, rng, n).values[:, 1:]


def radial_exact(params, times, rng, n):
    """R_t along one path per row: the exact marginal at times[0], then the
    exact transition from each time to the next."""
    for t in times[1:]:
        radial_transition(params, t)  # the domain check, naming the caller's t
    cols = [sample_radial_exact(params, times[0], rng, size=n)]
    for s, t in zip(times, times[1:]):
        cols.append(sample_radial_step(params, cols[-1], t - s, rng))
    return np.column_stack(cols)


def radial_euler(params, times, rng, n, *, scheme):
    """R_t along one path per row by the drift-implicit Euler step, which
    stays positive without a guard."""
    return euler_radial(params, TimeGrid.from_times(times), scheme, rng, n).values[:, 1:]


def ou_exact(params, times, rng, n):
    """Unkilled X_t from the exact marginal, one independent draw per time."""
    return np.column_stack([sample_ou_exact(params, t, rng, size=n) for t in times])


def survival_flags(params, times, rng, n):
    """1.0 for each bridge-corrected killed path (16 intervals) alive at t;
    a single time only."""
    (t,) = times
    paths = simulate_killed_ou_exact(params, TimeGrid.uniform(t, 16), rng, n)
    return (~paths.killing_flag).astype(float)[:, None]


# --- block-wise estimation -------------------------------------------------
#
# Block j of n_paths draws from stream(seed, j).  An integrand maps one
# column of draws to the samples being averaged.

def _raw_block(task):
    sampler, params, times, seed, block, n = task
    return sampler(params, times, stream(seed, block), n)


def _stats_block(task):
    x, integrand = _raw_block(task[:-1])[:, 0], task[-1]
    return BlockStats.of(x if integrand is None else integrand(x))


def _tasks(sampler, params, times, n_paths, seed, *extra):
    return [(sampler, params, times, seed, i, n, *extra)
            for i, n in enumerate(block_sizes(n_paths))]


def _block_stats(sampler, params, t, n_paths, seed, workers=1, integrand=None) -> list[BlockStats]:
    """Per-block statistics of integrand(sampler draws at t), in block order."""
    tasks = _tasks(sampler, params, (t,), n_paths, seed, integrand)
    return map_blocks(_stats_block, tasks, workers)


def mc_estimate(sampler, params, t, n_paths, seed, workers=1, integrand=None) -> MCEstimate:
    """Mean of integrand(sampler draws at t) over n_paths draws, reduced
    block by block so that no worker returns more than a few numbers."""
    return reduce_blocks(
        _block_stats(sampler, params, t, n_paths, seed, workers, integrand), seed=seed
    )


def block_draws(sampler, params, times, n_paths, seed, workers=1) -> list:
    """The sampler's result for each block, unchanged and in block order."""
    tasks = _tasks(sampler, params, tuple(times), n_paths, seed)
    return map_blocks(_raw_block, tasks, workers)


def terminal_draws(sampler, params, times, n_paths, seed, workers=1) -> np.ndarray:
    """The (n_paths, len(times)) draws behind mc_estimate, concatenated in
    block order; for checks and outputs that need the whole sample."""
    return np.concatenate(block_draws(sampler, params, times, n_paths, seed, workers))


def _inverse_weighted(params, t, f, weight_scale, r):
    vals = f(r) * inverse_weight(params, r, t)
    return vals * weight_scale if weight_scale != 1.0 else vals


def _forward_weighted(params, t, f, x):
    return f(x) * (x * (math.exp(params.gamma * t) / params.a))


def _alive(f, x):
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
    weight_scale: float = 1.0,
) -> MCEstimate:
    """E[f(X_t) 1_{t<T0}] estimated from exact radial draws:
    average of f(R_t) (a/R_t) e^{-gamma t}.

    weight_scale multiplies every weight and exists as a negative-control
    hook; leave it at 1.0 for estimation.
    """
    _check_functional(f)
    integrand = partial(_inverse_weighted, params, t, f, weight_scale)
    return mc_estimate(radial_exact, params, t, n_paths, seed, workers, integrand)


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
    _check_functional(f)
    return mc_estimate(killed_exact, params, t, n_paths, seed, workers, partial(_alive, f))


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
    _check_functional(f)
    integrand = partial(_forward_weighted, params, t, f)
    return mc_estimate(killed_exact, params, t, n_paths, seed, workers, integrand)


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
    _check_functional(f)
    return mc_estimate(radial_exact, params, t, n_paths, seed, workers, f)


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


def conditional_identity_detail(
    params: ProcessParams,
    f: TestFunctional,
    t: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> ConditionalIdentityResult:
    _check_functional(f)
    seed_lhs = derive_seed(seed, "conditional-lhs")
    seed_inv = derive_seed(seed, "conditional-qinv")
    seed_cond = derive_seed(seed, "conditional-killed")

    lhs = mc_estimate(radial_exact, params, t, n_paths, seed_lhs, workers,
                      partial(_over, f))
    q_inv = mc_estimate(radial_exact, params, t, n_paths, seed_inv, workers,
                        partial(_scaled_reciprocal, 1.0))

    # the survivor side averages over survivors only; a block may have none
    blocks = _block_stats(killed_exact, params, t, n_paths, seed_cond, workers,
                         partial(_survivors, f))
    n_survivors = sum(b.n for b in blocks)
    if n_survivors < 2:
        raise ValueError(
            f"only {n_survivors} surviving paths out of {n_paths}: "
            "n_paths too small for a conditional estimate"
        )
    cond = reduce_blocks(blocks, seed=seed_cond)

    return ConditionalIdentityResult(
        lhs=lhs, q_inverse_mean=q_inv, conditional_mean=cond, n_survivors=n_survivors
    )


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
    times = [float(t) for t in times]
    if not times or any(t <= 0 for t in times) or any(
        t2 <= t1 for t1, t2 in zip(times, times[1:])
    ):
        raise ValueError("times must be positive and strictly ascending")
    out = []
    for i, t in enumerate(times):
        seed_t = derive_seed(seed, "local-martingale", i)
        integrand = partial(_scaled_reciprocal, math.exp(-params.gamma * t))
        est = mc_estimate(radial_exact, params, t, n_paths, seed_t, workers, integrand)
        out.append(CurvePoint(t=t, estimate=est, closed_form=survival_probability(params, t) / params.a))
    return out
