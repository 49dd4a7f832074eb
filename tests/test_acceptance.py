"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion at its stated tolerance.  MC thresholds are four
combined standard errors; analytic thresholds are fixed absolute tolerances.

Known red: the naive sign-check Euler killing carries a Theta(sqrt(dt))
survival bias (~0.4 sqrt(dt) at gamma = a = t = 1), so its survival cannot
come within 0.01 of the closed form by dt = 0.005; that clause of
``test_criterion_09_killing_machinery`` fails by measurement, and the
documented convergence trend is asserted instead where it is true.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from ouht.density import (
    killed_density_mass,
    killed_expectation_quadrature,
    killed_ou_density,
    radial_density_mass,
    relative_identity_residual,
    survival_probability,
)
from ouht.harness import ks_statistic, ks_two_sample_critical
from ouht.measure import (
    conditional_identity_detail,
    default_functional_suite,
    estimate_killed_expectation_direct,
    estimate_killed_expectation_via_Q,
    local_martingale_curve,
)
from ouht.process import (
    ProcessParams,
    martingale_value,
    radial_transition,
    sample_ou_exact,
    sample_radial_exact,
)
from ouht.rng import stream
from ouht.simulate import SchemeConfig, TimeGrid, euler_ou, euler_radial, simulate_killed_ou_exact

import refvalues as ref
from reference_samplers import fill

SWEEP = [
    (gamma, a, t)
    for gamma in (-0.5, 0.0, 1.0)
    for a in (0.5, 1.0, 3.0)
    for t in (0.25, 1.0, 4.0)
]


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"acceptance criterion {num} ({label}) failed: {detail}"


def test_criterion_01_martingale_mean():
    n = 100_000
    t_start = time.perf_counter()
    worst = 0.0
    for i, gamma in enumerate((-0.5, 0.0, 1.0)):
        p = ProcessParams(gamma, 1.0)
        for j, t in enumerate((0.5, 1.0, 2.0)):
            x = sample_ou_exact(p, t, stream(501, i, j), size=n)
            m = martingale_value(p, x, t)
            gap = abs(m.mean() - p.a) / (m.std(ddof=1) / math.sqrt(n))
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t_start
    _verdict(
        1, "rescaled mean stays at the start point",
        worst <= 4.0 and elapsed < 5.0,
        f"(worst gap {worst:.2f} sigma, {elapsed:.1f}s)",
    )


def test_criterion_02_transport_identity():
    n = 1_000_000
    t_start = time.perf_counter()
    worst = 0.0
    for g_idx, gamma in enumerate((1.0, -0.5)):
        p = ProcessParams(gamma, 1.0)
        for f_idx, f in enumerate(default_functional_suite()):
            direct = estimate_killed_expectation_direct(p, f, 1.0, n, 510 + 10 * g_idx + f_idx)
            weighted = estimate_killed_expectation_via_Q(p, f, 1.0, n, 560 + 10 * g_idx + f_idx)
            se = max(math.hypot(direct.stderr, weighted.stderr), 1e-11)
            worst = max(worst, abs(direct.mean - weighted.mean) / se)
    elapsed = time.perf_counter() - t_start
    _verdict(
        2, "killed-OU and weighted-radial estimates agree",
        worst <= 4.0 and elapsed < 60.0,
        f"(worst gap {worst:.2f} sigma, {elapsed:.1f}s)",
    )


def test_criterion_03_conditioning_identity():
    n = 1_000_000
    t_start = time.perf_counter()
    worst = 0.0
    for f_idx, f in enumerate(default_functional_suite()):
        detail = conditional_identity_detail(ProcessParams(1.0, 1.0), f, 1.0, n, 601 + f_idx)
        worst = max(worst, abs(detail.gap_sigma))
    elapsed = time.perf_counter() - t_start
    _verdict(
        3, "conditioning identity holds across the functional suite",
        worst <= 4.0 and elapsed < 60.0,
        f"(worst gap {worst:.2f} sigma, {elapsed:.1f}s)",
    )


def test_criterion_04_killed_semigroup_recovery():
    p = ProcessParams(1.0, 1.0)
    n = 1_000_000
    worst_sigma = 0.0
    for f_idx, f in enumerate(default_functional_suite()):
        est = estimate_killed_expectation_via_Q(p, f, 1.0, n, 620 + f_idx)
        target = killed_expectation_quadrature(p, 1.0, f, f.breakpoints)
        worst_sigma = max(worst_sigma, abs(est.mean - target) / max(est.stderr, 1e-11))
    worst_killed_mass = 0.0
    worst_radial_mass = 0.0
    for gamma, a, t in SWEEP:
        q = ProcessParams(gamma, a)
        worst_killed_mass = max(
            worst_killed_mass, abs(killed_density_mass(q, t) - survival_probability(q, t))
        )
        worst_radial_mass = max(worst_radial_mass, abs(radial_density_mass(q, t) - 1.0))
    ok = worst_sigma <= 4.0 and worst_killed_mass <= 1e-8 and worst_radial_mass <= 1e-8
    _verdict(
        4, "killed semigroup: quadrature vs weighted MC and mass checks",
        ok,
        f"(worst {worst_sigma:.2f} sigma, mass gaps {worst_killed_mass:.1e}/{worst_radial_mass:.1e})",
    )


def test_criterion_05_pointwise_density_transform():
    worst = 0.0
    for gamma, a, t in SWEEP:
        p = ProcessParams(gamma, a)
        law = radial_transition(p, t)
        hi = law.center + 10.0 * math.sqrt(law.sigma2)
        xs = np.geomspace(hi * 1e-4, hi, 500)
        worst = max(worst, float(relative_identity_residual(p, t, xs).max()))
    _verdict(
        5, "pointwise density identity over 27 parameter sets",
        worst <= 1e-12,
        f"(max relative residual {worst:.2e})",
    )


def test_criterion_06_strict_local_martingale():
    p = ProcessParams(1.0, 1.0)
    times = (0.25, 0.5, 1.0, 2.0, 4.0)
    curve = local_martingale_curve(p, times, 100_000, 640)
    closed = [pt.closed_form for pt in curve]
    decreasing = all(b < a for a, b in zip(closed, closed[1:]))
    bounded = all(c < 1.0 / p.a for c in closed)
    mc_ok = all(
        abs(pt.estimate.mean - pt.closed_form) <= 4.0 * pt.estimate.stderr for pt in curve
    )
    pinned = abs(closed[2] - ref.SURVIVAL_ORACLE_G1_A1_T1) <= 4.0 * ref.SURVIVAL_ORACLE_STDERR
    _verdict(
        6, "expected inverse-weight curve is strictly decreasing",
        decreasing and bounded and mc_ok and pinned,
        f"(m(1) = {closed[2]:.6f}, pre-build oracle {ref.SURVIVAL_ORACLE_G1_A1_T1:.6f})",
    )


def test_criterion_07_zero_rate_reduction():
    a, t = 1.0, 1.0
    p = ProcessParams(0.0, a)
    xs = np.linspace(0.05, 8.0, 500)
    reflected = stats.norm.pdf(xs - a, scale=math.sqrt(t)) - stats.norm.pdf(
        xs + a, scale=math.sqrt(t)
    )
    rel = np.max(np.abs(killed_ou_density(p, t, xs) - reflected) / reflected)

    n = 100_000
    ours = sample_radial_exact(p, t, stream(650, 0), size=n)
    # independent Bessel(3) marginal: sqrt(t * ncx2(3, a^2/t)) via scipy
    bessel = np.sqrt(
        t * stats.ncx2.rvs(3, a * a / t, size=n, random_state=np.random.default_rng(651))
    )
    d = ks_statistic(ours, bessel)
    _verdict(
        7, "zero-rate case reduces to killed BM and Bessel(3)",
        rel <= 1e-12 and d <= 0.0073,
        f"(density rel gap {rel:.1e}, KS {d:.4f})",
    )


def test_criterion_08_singular_drift_validation():
    p = ProcessParams(1.0, 1.0)
    n, dt = 100_000, 1e-3
    sample = fill(euler_radial, p, TimeGrid(np.array([0.0, 1.0])), SchemeConfig(dt=dt),
                  stream(660, 0), n)
    r_euler = sample.values[:, 0]
    r_exact = sample_radial_exact(p, 1.0, stream(661, 0), size=n)
    d = ks_statistic(r_euler, r_exact)
    crit = ks_two_sample_critical(n, n, alpha=0.01)

    sq = r_euler**2
    target = radial_transition(p, 1.0).mean_square()
    allowance = 4.0 * sq.std(ddof=1) / math.sqrt(n) + 5.0 * dt
    moment_gap = abs(sq.mean() - target)
    _verdict(
        8, "Euler radial drift reproduces the exact law",
        d < crit and moment_gap <= allowance,
        f"(KS {d:.4f} < {crit:.4f}, moment gap {moment_gap:.4f} <= {allowance:.4f})",
    )


def test_criterion_09_killing_machinery():
    p = ProcessParams(1.0, 1.0)
    target = survival_probability(p, 1.0)

    n_exact = 1_000_000
    paths = fill(simulate_killed_ou_exact, p, TimeGrid(np.linspace(0.0, 1.0, 17)),
                 stream(670, 0), n_exact)
    surv = float(np.mean(paths.values[:, -1] > 0.0))
    se = math.sqrt(surv * (1.0 - surv) / n_exact)
    exact_ok = abs(surv - target) <= 4.0 * se

    n_euler = 200_000
    gaps = []
    for k, dt in enumerate((0.05, 0.02, 0.01, 0.005)):
        killed = fill(euler_ou, p, TimeGrid(np.array([0.0, 1.0])), SchemeConfig(dt=dt),
                      stream(671, k), n_euler)
        gaps.append(abs(np.mean(killed.values[:, 0] > 0.0) - target))
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] < 0.01  # unattainable for sign-check killing: bias ~ 0.4 sqrt(dt)

    detail = (
        f"(exact gap {abs(surv - target) / se:.2f} sigma; euler gaps "
        + "/".join(f"{g:.3f}" for g in gaps)
        + f"; final < 0.01 is {'met' if final_ok else 'NOT met'})"
    )
    _verdict(9, "killing machinery", exact_ok and monotone and final_ok, detail)


def test_criterion_10_determinism_and_negative_control(tmp_path):
    def verify(out, extra):
        # default estimator size: a 5% weight corruption sits ~11 combined
        # standard errors away from agreement, far beyond noise
        return subprocess.run(
            [sys.executable, "-m", "ouht", "verify", "--paths", "100000",
             "--seed", "33", "--out", out, *extra],
            cwd=tmp_path, capture_output=True, text=True, timeout=600,
        )

    r1 = verify("w1", ["--workers", "1"])
    r2 = verify("w2", ["--workers", "4"])
    body1 = json.loads((tmp_path / "w1.json").read_text())
    body2 = json.loads((tmp_path / "w2.json").read_text())
    body1.pop("meta")
    body2.pop("meta")
    same = (
        json.dumps(body1, sort_keys=True) == json.dumps(body2, sort_keys=True)
        and (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    )
    r3 = verify("biased", ["--workers", "1", "--inject-weight-bias", "0.05"])
    ok = r1.returncode == 0 and r2.returncode == 0 and same and r3.returncode == 3
    _verdict(
        10, "worker-count determinism and corrupted-weight control",
        ok,
        f"(exits {r1.returncode}/{r2.returncode}/{r3.returncode}, reports identical: {same})",
    )
