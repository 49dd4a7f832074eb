import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import integrate

from ouht.density import radial_density, survival_probability
from ouht.measure import (
    Draw,
    TestFunctional,
    forward_weighted,
    conditional_identity_detail,
    conditional_identity_gap,
    curve_draws,
    default_functional_suite,
    estimate_killed_expectation_direct,
    estimate_killed_expectation_via_Q,
    estimate_Q_expectation_via_P,
    estimate_radial_expectation_direct,
    inverse_weight,
    killed_euler,
    killed_exact,
    local_martingale_curve,
    ou_exact,
    radial_euler,
    radial_exact,
    run_draws,
    survival_flags,
)
from ouht.process import ProcessParams, radial_transition, sample_radial_exact
from ouht.rng import BLOCK_SIZE, stream
from ouht.simulate import SchemeConfig, TimeGrid, simulate_killed_ou_exact

import refvalues as ref

P11 = ProcessParams(1.0, 1.0)


def test_functional_validation():
    with pytest.raises(ValueError):
        TestFunctional("powers_of_x")
    with pytest.raises(ValueError):
        TestFunctional.capped_polynomial(2, math.inf)
    with pytest.raises(ValueError):
        TestFunctional.capped_polynomial(-1, 10.0)
    with pytest.raises(ValueError):
        TestFunctional.indicator_above(math.nan)


def test_functional_semantics():
    x = np.array([0.2, 0.5, 1.0, 3.0])
    assert np.array_equal(TestFunctional.constant_one()(x), np.ones(4))
    assert np.array_equal(TestFunctional.indicator_above(1.0)(x), [0, 0, 0, 1])
    assert np.array_equal(TestFunctional.indicator_below(0.5)(x), [1, 0, 0, 0])
    capped = TestFunctional.capped_polynomial(2, 4.0)
    assert np.allclose(capped(x), [0.04, 0.25, 1.0, 4.0])
    assert capped.breakpoints() == (2.0,)
    assert TestFunctional.indicator_above(1.0).breakpoints() == (1.0,)
    assert TestFunctional.constant_one().breakpoints() == ()
    assert capped(5.0) == 4.0
    labels = {f.label() for f in default_functional_suite()}
    assert len(labels) == len(default_functional_suite())


def test_estimators_reject_plain_callables():
    with pytest.raises(TypeError):
        estimate_killed_expectation_via_Q(P11, lambda x: x, 1.0, 1000, 1)


def test_weight_duality_at_machine_precision():
    rng = stream(301, 0)
    r = rng.uniform(0.05, 5.0, size=1000)
    for gamma, t in [(1.0, 0.7), (-0.5, 2.0), (0.0, 1.0)]:
        p = ProcessParams(gamma, 1.3)
        fwd = (r / p.a) * math.exp(gamma * t)
        inv = inverse_weight(p, r, t)
        assert np.max(np.abs(fwd * inv - 1.0)) <= 5e-16


def test_inverse_weight_examples():
    assert inverse_weight(ProcessParams(0.0, 1.0), 1.0, 3.7) == 1.0
    got = inverse_weight(P11, 2.0, 1.0)
    assert got == pytest.approx(ref.INVERSE_WEIGHT_R2_G1_T1, rel=1e-14)
    with pytest.raises(ValueError):
        inverse_weight(P11, 0.0, 1.0)
    with pytest.raises(ValueError):
        inverse_weight(P11, np.array([1.0, -2.0]), 1.0)


def test_inverse_weight_mean_recovers_survival():
    n = 200_000
    r = sample_radial_exact(P11, 1.0, stream(302, 0), size=n)
    w = inverse_weight(P11, r, 1.0)
    target = survival_probability(P11, 1.0)
    assert abs(w.mean() - target) <= 4.0 * w.std(ddof=1) / math.sqrt(n)


def test_forward_weight_on_paths():
    # (X_{t and T0} / a) e^{gamma t} with f = 1: 1 at t = 0, and 0 exactly on
    # the paths absorbed by t, read from their 0 value
    one = TestFunctional.constant_one()
    paths = simulate_killed_ou_exact(P11, TimeGrid.uniform(1.0, 4), stream(304, 0), 20_000)
    assert np.all(forward_weighted(P11, 0.0, one, paths.values_at(0.0)) == 1.0)
    x = paths.values_at(1.0)
    w1 = forward_weighted(P11, 1.0, one, x)
    absorbed = x == 0.0
    assert absorbed.any()
    assert np.all(w1[absorbed] == 0.0)
    assert np.all(w1[~absorbed] > 0.0)


def test_forward_weight_gamma_zero_is_plain_ratio():
    p = ProcessParams(0.0, 2.0)
    x = killed_exact(p, (1.0,), stream(305, 0), 5_000)[0]
    w = forward_weighted(p, 1.0, TestFunctional.constant_one(), x)
    assert np.allclose(w, x / p.a)


def test_forward_weight_has_unit_mean():
    n = 100_000
    for i, gamma in enumerate((-0.5, 0.0, 1.0)):
        p = ProcessParams(gamma, 1.0)
        for j, t in enumerate((0.5, 1.0, 2.0)):
            est = estimate_Q_expectation_via_P(
                p, TestFunctional.constant_one(), t, n, 306 + 10 * i + j
            )
            assert abs(est.mean - 1.0) <= 4.0 * est.stderr, (gamma, t)


def test_transport_agreement_both_directions():
    n = 200_000
    t = 1.0
    for f in default_functional_suite():
        direct = estimate_killed_expectation_direct(P11, f, t, n, 307)
        weighted = estimate_killed_expectation_via_Q(P11, f, t, n, 308)
        gap = abs(direct.mean - weighted.mean) / max(
            math.hypot(direct.stderr, weighted.stderr), 1e-11
        )
        assert gap <= 4.0, f.label()

    f = TestFunctional.indicator_above(1.0)
    q_direct = estimate_radial_expectation_direct(P11, f, t, n, 309)
    q_via_p = estimate_Q_expectation_via_P(P11, f, t, n, 310)
    gap = abs(q_direct.mean - q_via_p.mean) / math.hypot(q_direct.stderr, q_via_p.stderr)
    assert gap <= 4.0


def test_unreachable_indicator_estimates_zero():
    est = estimate_killed_expectation_via_Q(
        P11, TestFunctional.indicator_above(1e9), 1.0, 50_000, 320
    )
    assert est.mean == 0.0
    # and the constant functional recovers the survival probability
    est_one = estimate_killed_expectation_via_Q(
        P11, TestFunctional.constant_one(), 1.0, 200_000, 321
    )
    target = survival_probability(P11, 1.0)
    assert abs(est_one.mean - target) <= 4.0 * est_one.stderr


def test_transport_gamma_zero_matches_bessel_quadrature():
    # E_Q[1(R_t > a)] against quadrature of the radial density (gamma = 0:
    # the three-dimensional Bessel marginal)
    p = ProcessParams(0.0, 1.0)
    est = estimate_Q_expectation_via_P(p, TestFunctional.indicator_above(1.0), 1.0, 200_000, 311)
    target, _ = integrate.quad(lambda x: radial_density(p, 1.0, x), 1.0, 14.0, limit=200)
    assert abs(est.mean - target) <= 4.0 * est.stderr


def test_conditional_identity_gaps_within_four_sigma():
    for f in default_functional_suite():
        gap = conditional_identity_gap(P11, f, 1.0, 200_000, 312)
        assert abs(gap) <= 4.0, f.label()


def test_conditional_identity_uses_disjoint_streams():
    d = conditional_identity_detail(P11, TestFunctional.constant_one(), 1.0, 50_000, 313)
    assert d.lhs.seed != d.q_inverse_mean.seed != d.conditional_mean.seed
    assert d.n_survivors > 0
    assert d.combined_stderr > 0


def test_conditional_identity_needs_survivors():
    # survival here is ~1.5e-3, so 2 paths almost surely all die
    p = ProcessParams(1.0, 0.01)
    with pytest.raises(ValueError):
        conditional_identity_detail(p, TestFunctional.constant_one(), 2.0, 2, 1)


def test_local_martingale_curve():
    pts = local_martingale_curve(P11, (0.5, 1.0, 2.0), 100_000, 314)
    closed = [pt.closed_form for pt in pts]
    assert all(b < a for a, b in zip(closed, closed[1:]))
    assert all(c < 1.0 / P11.a for c in closed)
    for pt in pts:
        assert pt.closed_form == pytest.approx(
            survival_probability(P11, pt.t) / P11.a, rel=1e-14
        )
        assert abs(pt.estimate.mean - pt.closed_form) <= 4.0 * pt.estimate.stderr
    # the t = 1 level was pinned by the pre-build MC oracle
    assert abs(pts[1].closed_form - ref.SURVIVAL_ORACLE_G1_A1_T1) <= 4.0 * ref.SURVIVAL_ORACLE_STDERR


def test_local_martingale_curve_near_zero_limit():
    pts = local_martingale_curve(P11, (1e-4,), 50_000, 315)
    assert pts[0].estimate.mean == pytest.approx(1.0 / P11.a, abs=0.01)
    with pytest.raises(ValueError):
        local_martingale_curve(P11, (1.0, 0.5), 1000, 1)
    with pytest.raises(ValueError):
        local_martingale_curve(P11, (-1.0, 0.5), 1000, 1)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_curve_draws_reject_non_finite_times(bad):
    with pytest.raises(ValueError, match="^times must be positive, finite and strictly ascending$"):
        curve_draws(P11, [bad], 1000, 1)
    with pytest.raises(ValueError, match="^times must be positive, finite and strictly ascending$"):
        curve_draws(P11, [0.5, bad], 1000, 1)


def test_estimators_are_deterministic_and_worker_invariant():
    f = TestFunctional.indicator_above(1.0)
    a = estimate_killed_expectation_via_Q(P11, f, 1.0, 150_000, 316, workers=1)
    b = estimate_killed_expectation_via_Q(P11, f, 1.0, 150_000, 316, workers=3)
    assert a == b


def test_radial_exact_rows_are_paths():
    # R_s^2 is the squared norm of a 3-d Gaussian (center c, per-coordinate
    # variance sigma2), so Var(R_s^2) = 6 sigma2^2 + 4 c^2 sigma2; along one
    # path the vector decays by e^{-gamma (t-s)} and gains independent noise,
    # so Cov(R_s^2, R_t^2) = e^{-2 gamma (t-s)} Var(R_s^2)
    s, t, n = 0.5, 1.0, 50_000
    draws = radial_exact(P11, (s, t), stream(301, 0), n)
    sq_s, sq_t = draws[0] ** 2, draws[1] ** 2

    law = radial_transition(P11, s)
    target = math.exp(-2.0 * (t - s)) * (6.0 * law.sigma2**2 + 4.0 * law.center**2 * law.sigma2)
    products = (sq_s - sq_s.mean()) * (sq_t - sq_t.mean())
    stderr = products.std(ddof=1) / math.sqrt(n)
    assert abs(products.mean() - target) <= 4.0 * stderr, (products.mean(), target, stderr)

    # each later row keeps the exact marginal
    target_t = radial_transition(P11, t).mean_square()
    assert abs(sq_t.mean() - target_t) <= 4.0 * sq_t.std(ddof=1) / math.sqrt(n)


def test_radial_exact_first_time_is_the_marginal_draw():
    # the first row is sample_radial_exact's draw, so single-time
    # estimators (and verify) see the same numbers as before
    draws = radial_exact(P11, (0.5, 1.0, 2.0), stream(302, 0), 1_000)
    assert np.array_equal(draws[0], sample_radial_exact(P11, 0.5, stream(302, 0), size=1_000))


@pytest.mark.parametrize("gamma", [1.0, -0.7, 3.0])
def test_survival_flags_are_the_last_column_of_the_full_bridge(gamma):
    # keeping one row draws the same variates in the same order, so the flags
    # are the full kernel's last column read as > 0, over two ragged blocks
    params, n = ProcessParams(gamma, 1.0), BLOCK_SIZE + 4_464
    full = simulate_killed_ou_exact(params, TimeGrid.uniform(1.0, 16), stream(232, 0), n)
    flags = survival_flags(params, (1.0,), stream(232, 0), n)
    assert flags.shape == (1, n)
    assert flags.tobytes() == (full.values[:, -1] > 0.0).astype(float).tobytes()
    assert 0 < np.count_nonzero(flags == 0.0) < n


def test_survival_flags_peak_memory_is_a_few_block_rows():
    # the full 17-row grid with its flag copies peaked at 23.5 block rows
    rng = stream(0, 0)
    tracemalloc.start()
    try:
        survival_flags(P11, (1.0,), rng, BLOCK_SIZE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 8 * BLOCK_SIZE, peak / (8 * BLOCK_SIZE)


def _peak_block_rows(draw):
    tracemalloc.start()
    try:
        draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * BLOCK_SIZE)


def test_raw_euler_sample_is_held_once():
    # a serial block writes into its columns of the one (3, n) sample, with
    # one scratch row; a block array per block and their concatenation
    # peaked at about 14.4 block rows
    draw = Draw(partial(radial_euler, scheme=SchemeConfig(dt=0.5)), (0.5, 1.0, 2.0),
                2 * BLOCK_SIZE, 3)
    rows = _peak_block_rows(lambda: run_draws(P11, {0: draw}, workers=1))
    assert rows <= 6 + 3, rows


def test_killed_exact_block_peak_memory():
    # three times make a four-row grid; the bridge adds its uniforms, its
    # proposal and its state, which also holds the crossing probability and
    # the kill flags (a crossing-probability row and a flag row made 8.1)
    rng = stream(0, 0)
    rows = _peak_block_rows(lambda: killed_exact(P11, (0.5, 1.0, 2.0), rng, BLOCK_SIZE))
    assert rows <= 7.2, rows


@pytest.mark.parametrize("sampler", [
    killed_exact, partial(killed_euler, scheme=SchemeConfig(dt=0.1)), radial_exact,
    partial(radial_euler, scheme=SchemeConfig(dt=0.1)), ou_exact, survival_flags,
], ids=["killed_exact", "killed_euler", "radial_exact", "radial_euler", "ou_exact",
        "survival_flags"])
def test_raw_sample_is_its_blocks_drawn_in_place(sampler):
    # each serial block draws into its columns of the one time-major sample;
    # the bytes are those of the block drawn into an array of its own
    times = (1.0,) if sampler is survival_flags else (0.5, 1.0, 2.0)
    n = BLOCK_SIZE + 300
    sample = run_draws(P11, {0: Draw(sampler, times, n, 7)}, workers=1)[0]
    blocks = [sampler(P11, times, stream(7, j), m) for j, m in enumerate((BLOCK_SIZE, 300))]
    assert sample.shape == (len(times), n)
    assert sample.tobytes() == np.concatenate(blocks, axis=1).tobytes()
