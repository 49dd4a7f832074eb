"""The registered verification checks and their orchestration.

Every check compares a Monte Carlo estimate against an independent oracle
(closed form, quadrature, or a disjoint-stream estimator) and reports its
gap either in combined standard errors (threshold 4) or as an absolute
error (fixed tolerance).  Seeds are derived per check from the master seed,
so the report is reproducible bit-for-bit regardless of the worker count.
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
    TestFunctional,
    conditional_identity_detail,
    default_functional_suite,
    estimate_killed_expectation_direct,
    estimate_killed_expectation_via_Q,
    estimate_Q_expectation_via_P,
    local_martingale_curve,
    mc_estimate,
    ou_exact,
    radial_euler,
    radial_exact,
    survival_flags,
    terminal_draws,
)
from .process import ProcessParams, martingale_value, radial_transition
from .rng import derive_seed
from .simulate import SchemeConfig

MIN_PATHS_FOR_MC = 100
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
        ProcessParams(gamma=self.gamma, a=self.a)  # validate eagerly
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if not times or any(t <= 0 for t in times) or any(
            b <= a for a, b in zip(times, times[1:])
        ):
            raise ValueError("times must be positive strictly ascending")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")

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

def _sigma_gap(value, target, stderr):
    return abs(sigma_gap(value, target, stderr))


class _Collector:
    def __init__(self, config: SuiteConfig):
        self.config = config
        self.checks: list[CheckResult] = []

    def add(self, check, identity, oracle, value, target, gap, threshold, seed=None):
        status = PASS if gap <= threshold else FAIL
        self.checks.append(
            CheckResult(
                check=check, identity=identity, oracle=oracle,
                value=None if value is None else float(value),
                target=None if target is None else float(target),
                gap=float(gap), threshold=float(threshold), status=status, seed=seed,
            )
        )

    def skip(self, check, identity, oracle, reason):
        self.checks.append(
            CheckResult(
                check=check, identity=identity, oracle=oracle,
                value=None, target=None, gap=None, threshold=math.nan,
                status=SKIPPED, reason=reason,
            )
        )


def run_suite(config: SuiteConfig) -> ExperimentReport:
    """Run every registered check and assemble the report.

    Sample-based checks are marked skipped (not failed) when n_paths is too
    small for their statistics to mean anything.
    """
    t_start = time.perf_counter()
    p = config.params
    col = _Collector(config)
    enough = config.n_paths >= MIN_PATHS_FOR_MC
    too_few = f"insufficient samples: n_paths={config.n_paths} < {MIN_PATHS_FOR_MC}"
    weight_scale = 1.0 + config.weight_bias

    # martingale of the unkilled process
    for t in config.times:
        check, idn = f"martingale-mean[t={t:g}]", "mean of X_t*exp(gamma*t) equals a"
        if not enough:
            col.skip(check, idn, "starting point a", too_few)
            continue
        seed = derive_seed(config.seed, "martingale", f"{t:g}")
        est = mc_estimate(ou_exact, p, t, config.n_paths, seed, config.workers,
                          partial(martingale_value, p, t=t))
        col.add(check, idn, "starting point a", est.mean, p.a,
                _sigma_gap(est.mean, p.a, est.stderr), SIGMA_THRESHOLD, seed)

    # total mass of the forward weight
    for t in config.times:
        check, idn = f"weight-unit-mass[t={t:g}]", "mean forward weight equals 1"
        if not enough:
            col.skip(check, idn, "unit mass", too_few)
            continue
        seed = derive_seed(config.seed, "unit-mass", f"{t:g}")
        est = estimate_Q_expectation_via_P(
            p, TestFunctional.constant_one(), t, config.n_paths, seed, config.workers
        )
        col.add(check, idn, "unit mass", est.mean, 1.0,
                _sigma_gap(est.mean, 1.0, est.stderr), SIGMA_THRESHOLD, seed)

    # transport: killed-OU MC vs weighted radial MC
    t_mid = config.t_mid
    for f in config.functionals:
        check = f"transport-agreement[{f.label()}]"
        idn = "killed-OU mean of f equals weighted radial mean of f"
        if not enough:
            col.skip(check, idn, "two-sided MC", too_few)
            continue
        seed_d = derive_seed(config.seed, "transport-direct", f.label())
        seed_q = derive_seed(config.seed, "transport-weighted", f.label())
        direct = estimate_killed_expectation_direct(
            p, f, t_mid, config.n_paths, seed_d, config.workers
        )
        weighted = estimate_killed_expectation_via_Q(
            p, f, t_mid, config.n_paths, seed_q, config.workers, weight_scale=weight_scale
        )
        gap = _sigma_gap(weighted.mean, direct.mean,
                         math.hypot(direct.stderr, weighted.stderr))
        col.add(check, idn, "two-sided MC", weighted.mean, direct.mean, gap,
                SIGMA_THRESHOLD, seed_q)

    # conditioning identity
    for f in config.functionals:
        check = f"conditioning-gap[{f.label()}]"
        idn = "E_Q[f/X] equals E_Q[1/X] * E_P[f | survival]"
        if not enough:
            col.skip(check, idn, "disjoint-stream MC", too_few)
            continue
        seed = derive_seed(config.seed, "conditioning", f.label())
        try:
            detail = conditional_identity_detail(
                p, f, t_mid, config.n_paths, seed, config.workers
            )
        except ValueError as exc:
            col.skip(check, idn, "disjoint-stream MC", str(exc))
            continue
        col.add(check, idn, "disjoint-stream MC", detail.lhs.mean, detail.rhs,
                abs(detail.gap_sigma), SIGMA_THRESHOLD, seed)

    # killed semigroup: weighted radial MC vs quadrature of the closed form
    for f in config.functionals:
        check = f"killed-semigroup[{f.label()}]"
        idn = "weighted radial mean of f equals integral of f against the killed density"
        if not enough:
            col.skip(check, idn, "quadrature", too_few)
            continue
        seed = derive_seed(config.seed, "semigroup", f.label())
        est = estimate_killed_expectation_via_Q(
            p, f, t_mid, config.n_paths, seed, config.workers
        )
        target = killed_expectation_quadrature(p, t_mid, f, f.breakpoints())
        col.add(check, idn, "quadrature", est.mean, target,
                _sigma_gap(est.mean, target, est.stderr), SIGMA_THRESHOLD, seed)

    # density normalizations and the pointwise identity
    for t in config.times:
        mass = killed_density_mass(p, t)
        target = survival_probability(p, t)
        col.add(f"killed-density-mass[t={t:g}]",
                "killed density integrates to the survival probability",
                "Gauss-Legendre quadrature", mass, target, abs(mass - target), MASS_TOLERANCE)
        qmass = radial_density_mass(p, t)
        col.add(f"radial-density-mass[t={t:g}]",
                "radial density integrates to 1",
                "Gauss-Legendre quadrature", qmass, 1.0, abs(qmass - 1.0), MASS_TOLERANCE)
        law = radial_transition(p, t)
        hi = law.center + 10.0 * math.sqrt(law.sigma2)
        grid = np.geomspace(hi * 1e-4, hi, 500)
        worst = float(np.max(relative_identity_residual(p, t, grid)))
        col.add(f"htransform-residual[t={t:g}]",
                "killed density equals (a/x) e^{-gamma t} times radial density",
                "two independent derivations", worst, 0.0, worst, RESIDUAL_TOLERANCE)

    # strict local martingale: closed form monotone and below 1/a, MC overlay
    m_closed = [survival_probability(p, t) / p.a for t in config.times]
    worst_rise = max(
        [b - a for a, b in zip(m_closed, m_closed[1:])]
        + [max(m_closed) - 1.0 / p.a]
    )
    col.add("local-martingale-monotone",
            "m(t) = S(t)/a decreases strictly and stays below 1/a",
            "closed-form survival", max(m_closed), 1.0 / p.a, worst_rise, 0.0)
    idn = "radial mean of e^{-gamma t}/X equals S(t)/a"
    if enough:
        seed = derive_seed(config.seed, "local-martingale")
        for point in local_martingale_curve(p, config.times, config.n_paths, seed, config.workers):
            col.add(f"local-martingale-mc[t={point.t:g}]", idn,
                    "closed-form survival", point.estimate.mean, point.closed_form,
                    _sigma_gap(point.estimate.mean, point.closed_form, point.estimate.stderr),
                    SIGMA_THRESHOLD, point.estimate.seed)
    else:
        for t in config.times:
            col.skip(f"local-martingale-mc[t={t:g}]", idn, "closed-form survival", too_few)

    # killing machinery: bridge-corrected survival against the closed form
    check, idn = "survival-exact-scheme", "bridge-corrected survival equals 2*Phi(a/sqrt(tau)) - 1"
    if enough:
        seed = derive_seed(config.seed, "survival-exact")
        est = mc_estimate(survival_flags, p, t_mid, config.n_paths, seed, config.workers)
        target = survival_probability(p, t_mid)
        col.add(check, idn, "closed-form survival", est.mean, target,
                _sigma_gap(est.mean, target, est.stderr), SIGMA_THRESHOLD, seed)
    else:
        col.skip(check, idn, "closed-form survival", too_few)

    # Euler radial vs exact radial at the same horizon
    ks_row = ("euler-radial-ks", "Euler radial terminal law equals the exact radial law",
              "exact radial sampler")
    msq_row = ("euler-radial-msq",
               "Euler radial mean square equals center^2 + 3*sigma2 up to O(dt)",
               "moment closed form")
    tail_row = ("euler-radial-tail",
                "largest Euler radial draw stays inside the exact law's tail bound",
                "Gaussian concentration bound")
    if enough:
        n_euler = min(config.n_paths, 50_000)
        seed_e = derive_seed(config.seed, "euler-radial")
        seed_x = derive_seed(config.seed, "euler-radial-reference")
        euler = partial(radial_euler, scheme=SchemeConfig(dt=config.dt))
        euler_terminal = terminal_draws(euler, p, (t_mid,), n_euler, seed_e,
                                        config.workers)[:, 0]
        exact_terminal = terminal_draws(radial_exact, p, (t_mid,), n_euler, seed_x,
                                        config.workers)[:, 0]
        ks = ks_statistic(euler_terminal, exact_terminal)
        crit = ks_two_sample_critical(n_euler, n_euler, alpha=0.01)
        col.add(*ks_row, ks, 0.0, ks, crit, seed_e)

        law = radial_transition(p, t_mid)
        est = aggregate(euler_terminal**2, seed=seed_e)
        allowance = SIGMA_THRESHOLD * est.stderr + MSQ_BIAS_PER_DT * config.dt
        col.add(*msq_row, est.mean, law.mean_square(),
                abs(est.mean - law.mean_square()), allowance, seed_e)

        # R = |(center,0,0) + sigma Z| is sigma-Lipschitz in Z, with mean at
        # most sqrt(E R^2): by Gaussian concentration and a union bound, the
        # largest of n_euler exact draws exceeds this with probability <= TAIL_ALPHA
        bound = math.sqrt(law.mean_square()) + math.sqrt(
            2.0 * law.sigma2 * math.log(n_euler / TAIL_ALPHA))
        top = float(euler_terminal.max())
        col.add(*tail_row, top, bound, top, bound, seed_e)
    else:
        for row in (ks_row, msq_row, tail_row):
            col.skip(*row, too_few)

    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": round(time.perf_counter() - t_start, 3),
        "workers": config.workers,
    }
    return ExperimentReport(
        name="ouht-verification",
        version=__version__,
        config=config.to_dict(),
        checks=col.checks,
        meta=meta,
    )
