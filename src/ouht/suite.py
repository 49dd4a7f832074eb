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
    TestFunctional,
    alive,
    at_column,
    conditional_identities,
    default_functional_suite,
    forward_weighted,
    inverse_weighted,
    killed_exact,
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
    t_mid, fs = config.t_mid, config.functionals

    def draw(tag, sampler, times, integrands):
        # one draw of one law serves a whole family of rows, on the family's
        # own stream; a None per row when n_paths is too small
        if not enough:
            return [None] * len(integrands)
        seed = derive_seed(config.seed, *tag)
        return mc_estimate(sampler, p, times, config.n_paths, seed, integrands, config.workers)

    def sigma_row(check, idn, oracle, est, target, stderr=None, seed=None):
        if est is None:
            col.skip(check, idn, oracle, too_few)
            return
        gap = abs(sigma_gap(est.mean, target, est.stderr if stderr is None else stderr))
        col.add(check, idn, oracle, est.mean, target, gap, SIGMA_THRESHOLD,
                est.seed if seed is None else seed)

    # martingale of the unkilled process
    for t in config.times:
        (est,) = draw(("martingale", f"{t:g}"), ou_exact, (t,), [partial(martingale_value, p, t=t)])
        sigma_row(f"martingale-mean[t={t:g}]", "mean of X_t*exp(gamma*t) equals a",
                  "starting point a", est, p.a)

    # total mass of the forward weight, every time read off one killed path
    one = TestFunctional.constant_one()
    masses = draw(("unit-mass",), killed_exact, config.times,
                  [partial(at_column, j, partial(forward_weighted, p, t, one))
                   for j, t in enumerate(config.times)])
    for t, est in zip(config.times, masses):
        sigma_row(f"weight-unit-mass[t={t:g}]", "mean forward weight equals 1", "unit mass",
                  est, 1.0)

    # transport: killed-OU MC vs weighted radial MC.  The weighted radial draw
    # serves the killed-semigroup rows too; weight_bias scales only the
    # transport integrands
    direct = draw(("transport-direct",), killed_exact, (t_mid,), [partial(alive, f) for f in fs])
    weighted = draw(("weighted-radial",), radial_exact, (t_mid,),
                    [partial(inverse_weighted, p, t_mid, f, scale)
                     for scale in (1.0 + config.weight_bias, 1.0) for f in fs])
    transported, semigroup = weighted[:len(fs)], weighted[len(fs):]
    for f, d, w in zip(fs, direct, transported):
        row = (f"transport-agreement[{f.label()}]",
               "killed-OU mean of f equals weighted radial mean of f", "two-sided MC")
        if w is None:
            col.skip(*row, too_few)
        else:
            sigma_row(*row, w, d.mean, math.hypot(d.stderr, w.stderr))

    # conditioning identity: its lhs, q_inv and survivor sides are one draw
    # each, on three streams derived from the family seed
    seed = derive_seed(config.seed, "conditioning")
    details, reason = [None] * len(fs), too_few
    if enough:
        try:
            details = conditional_identities(p, fs, t_mid, config.n_paths, seed, config.workers)
        except ValueError as exc:
            reason = str(exc)
    for f, d in zip(fs, details):
        row = (f"conditioning-gap[{f.label()}]",
               "E_Q[f/X] equals E_Q[1/X] * E_P[f | survival]", "disjoint-stream MC")
        if d is None:
            col.skip(*row, reason)
        else:
            sigma_row(*row, d.lhs, d.rhs, d.combined_stderr, seed)

    # killed semigroup: weighted radial MC vs quadrature of the closed form
    for f, est in zip(fs, semigroup):
        row = (f"killed-semigroup[{f.label()}]",
               "weighted radial mean of f equals integral of f against the killed density",
               "quadrature")
        if est is None:
            col.skip(*row, too_few)
        else:
            sigma_row(*row, est, killed_expectation_quadrature(p, t_mid, f, f.breakpoints()))

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
            sigma_row(f"local-martingale-mc[t={point.t:g}]", idn, "closed-form survival",
                      point.estimate, point.closed_form)
    else:
        for t in config.times:
            col.skip(f"local-martingale-mc[t={t:g}]", idn, "closed-form survival", too_few)

    # killing machinery: bridge-corrected survival against the closed form
    (est,) = draw(("survival-exact",), survival_flags, (t_mid,), [None])
    sigma_row("survival-exact-scheme", "bridge-corrected survival equals 2*Phi(a/sqrt(tau)) - 1",
              "closed-form survival", est, survival_probability(p, t_mid))

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
