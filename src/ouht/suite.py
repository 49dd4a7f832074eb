"""The registered verification checks and their orchestration.

Every check compares a Monte Carlo estimate against an independent oracle
(closed form, quadrature, or a disjoint-stream estimator) and reports its
gap either in combined standard errors (threshold 4) or as an absolute
error (fixed tolerance).  Seeds are derived per check family from the master
seed, so the report is reproducible bit-for-bit regardless of the worker
count.  The rows of one family read one shared draw of one law, so their
gaps are correlated; the two sides of every comparison stay on disjoint
streams.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial

import numpy as np

from . import __version__
from .density import (
    killed_density_mass,
    killed_expectation_quadrature,
    radial_density_mass,
    relative_identity_residual,
    survival_probability,
)
from .harness import (
    FAIL,
    PASS,
    SKIPPED,
    CheckResult,
    ExperimentReport,
    aggregate,
    ks_statistic,
    ks_two_sample_critical,
    sigma_gap,
)
from .measure import (
    Draw,
    TestFunctional,
    alive,
    at_time,
    conditional_draws,
    conditional_results,
    curve_draws,
    default_functional_suite,
    forward_weighted,
    inverse_weighted,
    killed_exact,
    ou_exact,
    radial_euler,
    radial_exact,
    run_draws,
    survival_flags,
)
from .process import ProcessParams, martingale_value, radial_transition, time_change
from .rng import derive_seed
from .simulate import SchemeConfig, check_times

MIN_PATHS_FOR_MC = 100
# a weight-unit-mass row needs this many survivors expected from S(t)
MIN_EXPECTED_SURVIVORS = 10
SIGMA_THRESHOLD = 4.0
MASS_TOLERANCE = 1e-8
RESIDUAL_TOLERANCE = 1e-12
# chance that n exact radial draws break the euler-radial-tail bound
TAIL_ALPHA = 1e-6
# documented O(dt) weak-error allowance for the radial Euler second moment
MSQ_BIAS_PER_DT = 5.0


@dataclass(frozen=True)
class SuiteConfig:
    gamma: float = 1.0
    a: float = 1.0
    times: tuple[float, ...] = (0.5, 1.0, 2.0)
    n_paths: int = 100_000
    dt: float = 0.002
    seed: int = 0
    workers: int = 1
    weight_bias: float = 0.0
    functionals: tuple[TestFunctional, ...] = field(default_factory=default_functional_suite)

    def __post_init__(self):
        p = self.params  # validates gamma and a
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        object.__setattr__(self, "times", check_times(self.times))
        SchemeConfig(dt=self.dt)  # dt is checked as the Euler rows will check it
        for t in self.times:  # so is every law's horizon, before any draw
            time_change(p, t)
            radial_transition(p, t)

    @property
    def params(self) -> ProcessParams:
        return ProcessParams(gamma=self.gamma, a=self.a)

    @property
    def t_mid(self) -> float:
        return self.times[len(self.times) // 2]

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "a": self.a,
            "times": list(self.times),
            "n_paths": self.n_paths,
            "dt": self.dt,
            "seed": self.seed,
            "weight_bias": self.weight_bias,
            "functionals": [f.label() for f in self.functionals],
        }


# --- the suite -------------------------------------------------------------

def _sigma(est, target, stderr=None, seed=None):
    """A check in standard errors: (value, target, gap, threshold, seed)."""
    gap = abs(sigma_gap(est.mean, target, est.stderr if stderr is None else stderr))
    return est.mean, target, gap, SIGMA_THRESHOLD, est.seed if seed is None else seed


def run_suite(config: SuiteConfig) -> ExperimentReport:
    """Run every registered check and assemble the report.

    Every draw of the report is declared in one table and submitted to the
    pool at once.  Sample-based checks are marked skipped (not failed) when
    n_paths is too small for their statistics to mean anything.
    """
    t_start = time.perf_counter()
    p, n, seed = config.params, config.n_paths, config.seed
    times, t_mid, fs = config.times, config.t_mid, config.functionals
    one = TestFunctional.constant_one()
    n_euler = min(n, 50_000)
    seed_e, seed_c = derive_seed(seed, "euler-radial"), derive_seed(seed, "conditioning")
    conditioning = conditional_draws(fs, t_mid, n, seed_c)
    table = {
        # the two single-block Euler-row draws go first, so that neither
        # finishes last and alone on the pool
        "euler-radial": Draw(partial(radial_euler, scheme=SchemeConfig(dt=config.dt)),
                             (t_mid,), n_euler, seed_e),
        "euler-radial-reference": Draw(radial_exact, (t_mid,), n_euler,
                                       derive_seed(seed, "euler-radial-reference")),
        **{("martingale", t): Draw(ou_exact, (t,), n, derive_seed(seed, "martingale", f"{t:g}"),
                                   (partial(martingale_value, p, t=t),)) for t in times},
        # every time read off one killed path
        "unit-mass": Draw(killed_exact, times, n, derive_seed(seed, "unit-mass"),
                          tuple(partial(at_time, j, partial(forward_weighted, p, t, one))
                                for j, t in enumerate(times))),
        "transport-direct": Draw(killed_exact, (t_mid,), n, derive_seed(seed, "transport-direct"),
                                 tuple(partial(alive, f) for f in fs)),
        # weight_bias scales the transport integrands only; the unscaled ones
        # serve the killed-semigroup rows
        "weighted-radial": Draw(radial_exact, (t_mid,), n, derive_seed(seed, "weighted-radial"),
                                tuple(partial(inverse_weighted, p, t_mid, f, scale)
                                      for scale in (1.0 + config.weight_bias, 1.0) for f in fs)),
        **conditioning,
        **curve_draws(p, times, n, derive_seed(seed, "local-martingale")),
        "survival-exact": Draw(survival_flags, (t_mid,), n, derive_seed(seed, "survival-exact"),
                               (None,)),
    }
    got = run_draws(p, table, config.workers) if n >= MIN_PATHS_FOR_MC else None
    checks = []

    def add(check, idn, oracle, out):
        # out is (value, target, gap, threshold, seed), or the reason to skip
        if isinstance(out, str):
            checks.append(CheckResult(check, idn, oracle, None, None, None, math.nan, SKIPPED,
                                      reason=out))
            return
        value, target, gap, threshold, row_seed = out
        checks.append(CheckResult(check, idn, oracle, float(value), float(target), float(gap),
                                  float(threshold), PASS if gap <= threshold else FAIL,
                                  seed=row_seed))

    def row(check, idn, oracle, compute):
        # compute() reads out off the draws; with nothing drawn it is not called
        add(check, idn, oracle, compute() if got is not None
            else f"insufficient samples: n_paths={n} < {MIN_PATHS_FOR_MC}")

    # martingale of the unkilled process
    for t in times:
        row(f"martingale-mean[t={t:g}]", "mean of X_t*exp(gamma*t) equals a", "starting point a",
            lambda: _sigma(got["martingale", t][0], p.a))

    # total mass of the forward weight.  Its mean of 1 rests on surviving
    # paths, so with too few of them expected the row means nothing
    for j, t in enumerate(times):
        survivors = n * survival_probability(p, t)
        row(f"weight-unit-mass[t={t:g}]", "mean forward weight equals 1", "unit mass",
            lambda: _sigma(got["unit-mass"][j], 1.0) if survivors >= MIN_EXPECTED_SURVIVORS
            else f"expected survivors n_paths*S(t) = {survivors:.3g} < {MIN_EXPECTED_SURVIVORS}")

    # transport: killed-OU MC vs weighted radial MC
    def transport(i):
        direct, weighted = got["transport-direct"][i], got["weighted-radial"][i]
        return _sigma(weighted, direct.mean, math.hypot(direct.stderr, weighted.stderr))

    for i, f in enumerate(fs):
        row(f"transport-agreement[{f.label()}]",
            "killed-OU mean of f equals weighted radial mean of f", "two-sided MC",
            lambda: transport(i))

    # conditioning identity: its lhs, q_inv and survivor sides are one draw
    # each, on three streams derived from the family seed
    def conditioned(i):
        try:
            d = conditional_results(conditioning, got)[i]
        except ValueError as exc:
            return str(exc)
        return _sigma(d.lhs, d.rhs, d.combined_stderr, seed_c)

    for i, f in enumerate(fs):
        row(f"conditioning-gap[{f.label()}]",
            "E_Q[f/X] equals E_Q[1/X] * E_P[f | survival]", "disjoint-stream MC",
            lambda: conditioned(i))

    # killed semigroup: weighted radial MC vs quadrature of the closed form
    for i, f in enumerate(fs):
        row(f"killed-semigroup[{f.label()}]",
            "weighted radial mean of f equals integral of f against the killed density",
            "quadrature", lambda: _sigma(
                got["weighted-radial"][len(fs) + i],
                killed_expectation_quadrature(p, t_mid, f, f.breakpoints())))

    # density normalizations and the pointwise identity
    for t in times:
        mass = killed_density_mass(p, t)
        target = survival_probability(p, t)
        add(f"killed-density-mass[t={t:g}]",
            "killed density integrates to the survival probability",
            "Gauss-Legendre quadrature", (mass, target, abs(mass - target), MASS_TOLERANCE, None))
        qmass = radial_density_mass(p, t)
        add(f"radial-density-mass[t={t:g}]", "radial density integrates to 1",
            "Gauss-Legendre quadrature", (qmass, 1.0, abs(qmass - 1.0), MASS_TOLERANCE, None))
        law = radial_transition(p, t)
        hi = law.center + 10.0 * math.sqrt(law.sigma2)
        grid = np.geomspace(hi * 1e-4, hi, 500)
        worst = float(np.max(relative_identity_residual(p, t, grid)))
        add(f"htransform-residual[t={t:g}]",
            "killed density equals (a/x) e^{-gamma t} times radial density",
            "two independent derivations", (worst, 0.0, worst, RESIDUAL_TOLERANCE, None))

    # strict local martingale: closed form monotone and below 1/a, MC overlay
    m_closed = [survival_probability(p, t) / p.a for t in times]
    worst_rise = max(
        [b - a for a, b in zip(m_closed, m_closed[1:])]
        + [max(m_closed) - 1.0 / p.a]
    )
    add("local-martingale-monotone", "m(t) = S(t)/a decreases strictly and stays below 1/a",
        "closed-form survival", (max(m_closed), 1.0 / p.a, worst_rise, 0.0, None))
    for i, t in enumerate(times):
        row(f"local-martingale-mc[t={t:g}]", "radial mean of e^{-gamma t}/X equals S(t)/a",
            "closed-form survival",
            lambda: _sigma(got["local-martingale", i][0], m_closed[i]))

    # killing machinery: bridge-corrected survival against the closed form
    row("survival-exact-scheme", "bridge-corrected survival equals 2*Phi(a/sqrt(tau)) - 1",
        "closed-form survival",
        lambda: _sigma(got["survival-exact"][0], survival_probability(p, t_mid)))

    # Euler radial vs exact radial at the same horizon
    law = radial_transition(p, t_mid)

    def euler_ks():
        ks = ks_statistic(got["euler-radial"][0], got["euler-radial-reference"][0])
        return ks, 0.0, ks, ks_two_sample_critical(n_euler, n_euler, alpha=0.01), seed_e

    def euler_msq():
        est = aggregate(got["euler-radial"][0] ** 2, seed=seed_e)
        allowance = SIGMA_THRESHOLD * est.stderr + MSQ_BIAS_PER_DT * config.dt
        return est.mean, law.mean_square(), abs(est.mean - law.mean_square()), allowance, seed_e

    def euler_tail():
        # R = |(center,0,0) + sigma Z| is sigma-Lipschitz in Z, with mean at
        # most sqrt(E R^2): by Gaussian concentration and a union bound, the
        # largest of n_euler exact draws exceeds this with probability <= TAIL_ALPHA
        bound = math.sqrt(law.mean_square()) + math.sqrt(
            2.0 * law.sigma2 * math.log(n_euler / TAIL_ALPHA))
        top = float(got["euler-radial"][0].max())
        return top, bound, top, bound, seed_e

    row("euler-radial-ks", "Euler radial terminal law equals the exact radial law",
        "exact radial sampler", euler_ks)
    row("euler-radial-msq", "Euler radial mean square equals center^2 + 3*sigma2 up to O(dt)",
        "moment closed form", euler_msq)
    row("euler-radial-tail", "largest Euler radial draw stays inside the exact law's tail bound",
        "Gaussian concentration bound", euler_tail)

    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": round(time.perf_counter() - t_start, 3),
        "workers": config.workers,
    }
    return ExperimentReport(
        name="ouht-verification",
        version=__version__,
        config=config.to_dict(),
        checks=checks,
        meta=meta,
    )
