"""The registered verification checks and their orchestration.

Every check compares a Monte Carlo estimate against an independent oracle
(closed form, quadrature, or a disjoint-stream estimator) and reports its
gap either in combined standard errors (threshold 4) or as an absolute
error (fixed tolerance).  Seeds are derived per check family from the master
seed, so the report is reproducible bit-for-bit regardless of the worker
count.  Each law is drawn once per time and per side that has to stay
independent, and every row that reads that law at that time on that side
reads the one draw: the killed law at every time is one draw, the radial law
at the middle time two.  Rows that share a draw are correlated; the two (or
three) sides of every comparison stay on disjoint streams.  Rows read a
draw's estimates by name, a test functional's by its label as well.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass, replace
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
    ConditionalIdentityResult,
    Draw,
    TestFunctional,
    alive,
    at_time,
    curve_draws,
    default_functional_suite,
    forward_weighted,
    inverse_weighted,
    killed_exact,
    ou_exact,
    over,
    radial_euler,
    radial_exact,
    run_draws,
    scaled_reciprocal,
    survivors,
)
from .process import ProcessParams, check_horizon, check_times, martingale_value, radial_transition
from .rng import derive_seed
from .simulate import SchemeConfig

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
FUNCTIONALS = default_functional_suite()


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

    def __post_init__(self):
        p = self.params  # validates gamma and a
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not math.isfinite(self.weight_bias):
            raise ValueError(f"weight_bias must be finite, got {self.weight_bias}")
        object.__setattr__(self, "times", check_times(self.times))
        SchemeConfig(dt=self.dt)  # dt is checked as the Euler rows will check it
        # so is every law's horizon, before any draw, and the start a at time 0,
        # whose square begins each radial Euler path
        check_horizon(p, (*self.times, 0.0))

    @property
    def params(self) -> ProcessParams:
        return ProcessParams(gamma=self.gamma, a=self.a)

    @property
    def t_mid(self) -> float:
        return self.times[len(self.times) // 2]

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["workers"]  # no reported value depends on it; meta names it
        return {**out, "times": list(self.times),
                "functionals": [f.label for f in FUNCTIONALS]}


# --- the suite -------------------------------------------------------------

def _sigma(est, target, stderr=None):
    """A check in standard errors: (value, target, gap, threshold, seed), the
    seed est's own."""
    gap = abs(sigma_gap(est.mean, target, est.stderr if stderr is None else stderr))
    return est.mean, target, gap, SIGMA_THRESHOLD, est.seed


def run_suite(config: SuiteConfig) -> ExperimentReport:
    """Run every registered check and assemble the report.

    Beside the draw table, whose draws go to the pool at once, the rows are
    one list in report order of (check, identity, oracle, draw keys, read).
    A row with keys is read off exactly those draws, or skipped below
    MIN_PATHS_FOR_MC paths: read gets each draw's {name: estimate}, or its
    sample, and returns (value, target, gap, threshold, seed) or a reason to
    skip.  A row with no keys is its own tuple.
    """
    t_start = time.perf_counter()
    p, n, seed = config.params, config.n_paths, config.seed
    times, t_mid, fs = config.times, config.t_mid, FUNCTIONALS
    one = TestFunctional.constant_one()
    n_euler = min(n, 50_000)
    seed_e = derive_seed(seed, "euler-radial")
    mid = len(times) // 2
    reciprocal = ("local-martingale", mid)

    # total mass of the forward weight.  Its mean of 1 rests on surviving
    # paths, so with too few of them expected the row means nothing
    def unit_mass(j, t, ests):
        survivors = n * survival_probability(p, t)
        if survivors < MIN_EXPECTED_SURVIVORS:
            return f"expected survivors n_paths*S(t) = {survivors:.3g} < {MIN_EXPECTED_SURVIVORS}"
        return _sigma(ests["weight", j], 1.0)

    # transport: killed-OU MC vs weighted radial MC.  weight_bias scales this
    # row's weighted estimate, as scaling every weight would in law; the
    # killed-semigroup rows read the same estimate unscaled
    def transport(f, killed, radial):
        direct, est = killed["alive", f.label], radial["weighted", f.label]
        scale = 1.0 + config.weight_bias
        weighted = replace(est, mean=est.mean * scale, stderr=est.stderr * scale)
        return _sigma(weighted, direct.mean, math.hypot(direct.stderr, weighted.stderr))

    # conditioning identity: its lhs, q_inv and survivor sides are read off
    # three different draws, the two radial ones and the killed one, so that
    # the delta-method stderr may treat them as independent
    def conditioned(f, radial, recip, killed):
        try:
            d = ConditionalIdentityResult(radial["over", f.label], recip["inverse"],
                                          killed["survivors", f.label])
        except ValueError as exc:
            return str(exc)
        return _sigma(d.lhs, d.rhs, d.combined_stderr)

    # density normalizations and the pointwise identity
    def densities(t):
        mass = killed_density_mass(p, t)
        target = survival_probability(p, t)
        qmass = radial_density_mass(p, t)
        law = radial_transition(p, t)
        hi = law.center + 10.0 * math.sqrt(law.sigma2)
        grid = np.geomspace(hi * 1e-4, hi, 500)
        worst = float(np.max(relative_identity_residual(p, t, grid)))
        return [(f"killed-density-mass[t={t:g}]",
                 "killed density integrates to the survival probability",
                 "Gauss-Legendre quadrature", (),
                 (mass, target, abs(mass - target), MASS_TOLERANCE, None)),
                (f"radial-density-mass[t={t:g}]", "radial density integrates to 1",
                 "Gauss-Legendre quadrature", (),
                 (qmass, 1.0, abs(qmass - 1.0), MASS_TOLERANCE, None)),
                (f"htransform-residual[t={t:g}]",
                 "killed density equals (a/x) e^{-gamma t} times radial density",
                 "the weight (a/x) e^{-gamma t} at rounding level: both densities share "
                 "phi(w)(1 - e^{-2ur})", (), (worst, 0.0, worst, RESIDUAL_TOLERANCE, None))]

    # strict local martingale: closed form monotone and below 1/a, MC overlay
    m_closed = [survival_probability(p, t) / p.a for t in times]
    worst_rise = max(
        [b - a for a, b in zip(m_closed, m_closed[1:])]
        + [max(m_closed) - 1.0 / p.a]
    )

    # Euler radial vs exact radial at the same horizon
    law = radial_transition(p, t_mid)

    def euler_ks(euler, reference):
        ks = ks_statistic(euler[0], reference[0])
        return ks, 0.0, ks, ks_two_sample_critical(n_euler, n_euler, alpha=0.01), seed_e

    def euler_msq(euler):
        est = aggregate(euler[0] ** 2, seed=seed_e)
        allowance = SIGMA_THRESHOLD * est.stderr + MSQ_BIAS_PER_DT * config.dt
        return est.mean, law.mean_square(), abs(est.mean - law.mean_square()), allowance, seed_e

    def euler_tail(euler):
        # R = |(center,0,0) + sigma Z| is sigma-Lipschitz in Z, with mean at
        # most sqrt(E R^2): by Gaussian concentration and a union bound, the
        # largest of n_euler exact draws exceeds this with probability <= TAIL_ALPHA
        bound = math.sqrt(law.mean_square()) + math.sqrt(
            2.0 * law.sigma2 * math.log(n_euler / TAIL_ALPHA))
        top = float(euler[0].max())
        return top, bound, top, bound, seed_e

    # the local-martingale draw at t_mid, the second radial draw there, also
    # gives the conditioning rows E_Q[1/X] on a stream disjoint from their lhs
    curve = curve_draws(p, times, n, derive_seed(seed, "local-martingale"))
    curve[reciprocal] = replace(curve[reciprocal], integrands={
        **curve[reciprocal].integrands, "inverse": partial(scaled_reciprocal, 1.0)})
    table = {
        # the two single-block Euler-row draws go first and share the pool's
        # first chunk, so that neither finishes last and alone on the pool
        "euler-radial": Draw(partial(radial_euler, scheme=SchemeConfig(dt=config.dt)),
                             (t_mid,), n_euler, seed_e),
        "euler-radial-reference": Draw(radial_exact, (t_mid,), n_euler,
                                       derive_seed(seed, "euler-radial-reference")),
        **{("martingale", t): Draw(ou_exact, (t,), n, derive_seed(seed, "martingale", f"{t:g}"),
                                   {"mean": partial(martingale_value, p, t=t)}) for t in times},
        # every time read off one killed path, and at t_mid its survival and
        # the killed sides of the transport and conditioning rows; the
        # survival is alive(one), which transport-agreement[one] reads too
        "unit-mass": Draw(killed_exact, times, n, derive_seed(seed, "unit-mass"), {
            **{("weight", j): partial(at_time, j, partial(forward_weighted, p, t, one))
               for j, t in enumerate(times)},
            **{("alive", f.label): partial(at_time, mid, partial(alive, f)) for f in (one, *fs)},
            **{("survivors", f.label): partial(at_time, mid, partial(survivors, f)) for f in fs}}),
        "weighted-radial": Draw(radial_exact, (t_mid,), n, derive_seed(seed, "weighted-radial"), {
            **{("weighted", f.label): partial(inverse_weighted, p, t_mid, f) for f in fs},
            **{("over", f.label): partial(over, f) for f in fs}}),
        **curve,
    }
    rows = [
        *((f"martingale-mean[t={t:g}]", "mean of X_t*exp(gamma*t) equals a", "starting point a",
           (("martingale", t),), lambda ests: _sigma(ests["mean"], p.a)) for t in times),
        *((f"weight-unit-mass[t={t:g}]", "mean forward weight equals 1", "unit mass",
           ("unit-mass",), partial(unit_mass, j, t)) for j, t in enumerate(times)),
        *((f"transport-agreement[{f.label}]",
           "killed-OU mean of f equals weighted radial mean of f", "two-sided MC",
           ("unit-mass", "weighted-radial"), partial(transport, f))
          for f in fs),
        *((f"conditioning-gap[{f.label}]",
           "E_Q[f/X] equals E_Q[1/X] * E_P[f | survival]", "disjoint-stream MC",
           ("weighted-radial", reciprocal, "unit-mass"), partial(conditioned, f))
          for f in fs),
        # killed semigroup: weighted radial MC vs quadrature of the closed form
        *((f"killed-semigroup[{f.label}]",
           "weighted radial mean of f equals integral of f against the killed density",
           "quadrature", ("weighted-radial",), lambda ests, f=f: _sigma(
               ests["weighted", f.label],
               killed_expectation_quadrature(p, t_mid, f, f.breakpoints))) for f in fs),
        *(row for t in times for row in densities(t)),
        ("local-martingale-monotone", "m(t) = S(t)/a decreases strictly and stays below 1/a",
         "closed-form survival", (), (max(m_closed), 1.0 / p.a, worst_rise, 0.0, None)),
        *((f"local-martingale-mc[t={t:g}]", "radial mean of e^{-gamma t}/X equals S(t)/a",
           "closed-form survival", (("local-martingale", i),),
           lambda ests, m=m_closed[i]: _sigma(ests["discounted"], m)) for i, t in enumerate(times)),
        # killing machinery: bridge-corrected survival, read off the unit-mass
        # paths at t_mid, against the closed form
        ("survival-exact-scheme", "bridge-corrected survival equals 2*Phi(a/sqrt(tau)) - 1",
         "closed-form survival", ("unit-mass",),
         lambda ests: _sigma(ests["alive", one.label], survival_probability(p, t_mid))),
        ("euler-radial-ks", "Euler radial terminal law equals the exact radial law",
         "exact radial sampler", ("euler-radial", "euler-radial-reference"), euler_ks),
        ("euler-radial-msq", "Euler radial mean square equals center^2 + 3*sigma2 up to O(dt)",
         "moment closed form", ("euler-radial",), euler_msq),
        ("euler-radial-tail", "largest Euler radial draw stays inside the exact law's tail bound",
         "Gaussian concentration bound", ("euler-radial",), euler_tail),
    ]

    got = run_draws(p, table, config.workers) if n >= MIN_PATHS_FOR_MC else None
    checks = []
    for *names, keys, read in rows:
        out = (read if not keys else read(*(got[key] for key in keys)) if got is not None
               else f"insufficient samples: n_paths={n} < {MIN_PATHS_FOR_MC}")
        if isinstance(out, str):
            checks.append(CheckResult(*names, None, None, None, None, SKIPPED, reason=out))
            continue
        value, target, gap, threshold, row_seed = out
        checks.append(CheckResult(*names, float(value), float(target), float(gap), float(threshold),
                                  PASS if gap <= threshold else FAIL, seed=row_seed))

    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "runtime_seconds": round(time.perf_counter() - t_start, 3),
        "workers": config.workers,
        # the streams are numpy's generator algorithms: name the numpy that ran them
        "python": "{}.{}.{}".format(*sys.version_info[:3]),
        "numpy": np.__version__,
    }
    return ExperimentReport(
        name="ouht-verification",
        version=__version__,
        config=config.to_dict(),
        checks=checks,
        meta=meta,
    )
