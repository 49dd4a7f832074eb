import inspect
import math
import multiprocessing
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import integrate

import ouht.cli
import ouht.measure
import ouht.rng
import ouht.simulate
from ouht.density import radial_density, survival_probability
from ouht.harness import MCEstimate
from ouht.measure import (
    ConditionalIdentityResult,
    Draw,
    TestFunctional,
    _block,
    alive,
    at_time,
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
)
from ouht.process import ProcessParams, radial_transition, sample_radial_exact
from ouht.rng import BLOCK_SIZE, stream
from ouht.simulate import SchemeConfig, TimeGrid, simulate_killed_ou_exact

import refvalues as ref
from reference_samplers import fill, killed_ou_bridge

P11 = ProcessParams(1.0, 1.0)


def _drawn(sampler, params, times, rng, n):
    """The block that sampler writes into a (len(times), n) array of its own."""
    out = np.empty((len(times), n))
    sampler(params, times, rng, n, out)
    return out


def test_functional_validation():
    with pytest.raises(ValueError, match=r"^polynomial degree must be an integer >= 0$"):
        TestFunctional.capped_polynomial(2.5, 10.0)
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
    assert capped.breakpoints == (2.0,)
    assert TestFunctional.indicator_above(1.0).breakpoints == (1.0,)
    assert TestFunctional.constant_one().breakpoints == ()
    assert capped(5.0) == 4.0
    labels = {f.label for f in default_functional_suite()}
    assert len(labels) == len(default_functional_suite())
    # the suite's draws key estimates by label, and its survival row reads the
    # estimate of the functional labelled "one": only the constant has that label
    (one,) = [f for f in default_functional_suite() if f.label == "one"]
    assert np.array_equal(one(x), np.ones(4))
    others = [*(TestFunctional.indicator_above(c) for c in (-1.0, 0.0, 1.0, 1e9)),
              *(TestFunctional.indicator_below(c) for c in (-1.0, 0.0, 1.0, 1e9)),
              *(TestFunctional.capped_polynomial(k, cap) for k in (0, 1, 3) for cap in (1.0, 10.0))]
    assert TestFunctional.constant_one().label == "one"
    assert [f.label for f in others if f.label == "one"] == []


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
    # (X_{t and T0} / a) e^{gamma t} with f = 1: 1 at the start a at t = 0,
    # and 0 exactly on the paths absorbed by t, read from their 0 value
    one = TestFunctional.constant_one()
    paths = fill(simulate_killed_ou_exact, P11, TimeGrid(np.linspace(0.0, 1.0, 5)), stream(304, 0),
                 20_000)
    assert np.all(forward_weighted(P11, 0.0, one, np.full(paths.n_paths, P11.a)) == 1.0)
    x = paths.values[:, -1]
    w1 = forward_weighted(P11, 1.0, one, x)
    absorbed = x == 0.0
    assert absorbed.any()
    assert np.all(w1[absorbed] == 0.0)
    assert np.all(w1[~absorbed] > 0.0)


def test_forward_weight_gamma_zero_is_plain_ratio():
    p = ProcessParams(0.0, 2.0)
    x = _drawn(killed_exact, p, (1.0,), stream(305, 0), 5_000)[0]
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
        assert gap <= 4.0, f.label

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
        assert abs(gap) <= 4.0, f.label


def test_conditional_identity_uses_disjoint_streams():
    d = conditional_identity_detail(P11, TestFunctional.constant_one(), 1.0, 50_000, 313)
    assert d.lhs.seed != d.q_inverse_mean.seed != d.conditional_mean.seed
    assert d.conditional_mean.n > 0
    assert d.combined_stderr > 0


def test_conditional_identity_needs_survivors():
    # survival here is ~1.5e-3, so 2 paths almost surely all die
    p = ProcessParams(1.0, 0.01)
    with pytest.raises(ValueError):
        conditional_identity_detail(p, TestFunctional.constant_one(), 2.0, 2, 1)


def test_conditional_identity_refuses_fewer_than_two_survivors():
    # the result checks its own survivor count, and names it against the
    # paths drawn, the lhs count
    lhs, q_inv = MCEstimate(1.2, 0.01, 300, 1), MCEstimate(1.1, 0.01, 300, 2)
    for n in (0, 1):
        with pytest.raises(ValueError, match=rf"^only {n} surviving paths out of 300: "
                                             r"n_paths too small for a conditional estimate$"):
            ConditionalIdentityResult(lhs, q_inv, MCEstimate(math.nan, math.nan, n, 3))
    assert ConditionalIdentityResult(lhs, q_inv, MCEstimate(0.5, 0.1, 2, 3)).rhs == 1.1 * 0.5


def test_measure_api_estimates_are_pinned():
    # two blocks each; the conditioning detail on the pool
    n, fs = BLOCK_SIZE + 1, default_functional_suite()
    estimators = (estimate_killed_expectation_via_Q, estimate_killed_expectation_direct,
                  estimate_Q_expectation_via_P, estimate_radial_expectation_direct)
    assert {(fn.__name__, f.label): fn(P11, f, 1.0, n, 5) for fn in estimators for f in fs} == {
        key: MCEstimate(*est) for key, est in ref.MEASURE_API_ESTIMATES.items()}
    details = {f.label: conditional_identity_detail(P11, f, 1.0, n, 3, workers=2) for f in fs}
    assert {label: (d.lhs, d.q_inverse_mean, d.conditional_mean)
            for label, d in details.items()} == {
        label: tuple(MCEstimate(*est) for est in sides)
        for label, sides in ref.MEASURE_API_CONDITIONAL.items()}
    curve = local_martingale_curve(P11, (0.5, 1.0), n, 4)
    assert [(pt.t, pt.estimate, pt.closed_form) for pt in curve] == [
        (t, MCEstimate(*est), closed) for t, est, closed in ref.MEASURE_API_CURVE]


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


@pytest.mark.parametrize("sampler,integrands", [(killed_exact, None), (radial_exact, {0: None}),
                                                (ou_exact, {0: None})])
def test_run_draws_checks_each_horizon_before_any_block(monkeypatch, sampler, integrands):
    # e^{-2 gamma t} = e^{1000} overflows: the draw is refused before map_blocks
    def no_draws(*args, **kwargs):
        raise AssertionError("map_blocks was called")

    monkeypatch.setattr(ouht.measure, "map_blocks", no_draws)
    draw = Draw(sampler, (0.5, 10.0), 1000, 1, integrands)
    with pytest.raises(OverflowError, match=r"for gamma = -50, t = 10 \(gamma\*t = -500\)"):
        run_draws(ProcessParams(-50.0, 1.0), {0: draw})


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
    draws = _drawn(radial_exact, P11, (s, t), stream(301, 0), n)
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
    draws = _drawn(radial_exact, P11, (0.5, 1.0, 2.0), stream(302, 0), 1_000)
    assert np.array_equal(draws[0], sample_radial_exact(P11, 0.5, stream(302, 0), size=1_000))


@pytest.mark.parametrize("k", [4])
def test_killed_bridge_fills_the_trailing_grid_rows_it_is_handed(k):
    # on a k-interval grid, the k rows after time 0 handed in hold the
    # allocating reference bridge's values: the same variates, written in place
    params, grid, n = ProcessParams(0.8, 1.0), TimeGrid(np.linspace(0.0, 2.0, k + 1)), 3_000
    reference = killed_ou_bridge(params, grid, stream(233, 0), n)
    out = np.empty((k, n))
    kept = simulate_killed_ou_exact(params, grid, stream(233, 0), n, out)
    assert kept.values.base is out and reference.values.shape == (n, k)
    assert out.tobytes() == np.ascontiguousarray(reference.values.T).tobytes()
    assert 0 < np.count_nonzero(out[-1] == 0.0) < n


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


def test_unit_mass_block_peak_memory():
    # the suite's unit-mass block: its three rows, which the bridge fills
    # with no time-0 row, the proposal and the state, and the integrands'
    # temporaries, the survival read at the middle time among them; the
    # bridge's uniforms go to the row each interval writes (a four-row grid
    # with its time-0 row peaked at 6.0 rows, and a buffer of their own for
    # the uniforms at 7.0)
    one = TestFunctional.constant_one()
    times = (0.5, 1.0, 2.0)
    integrands = {**{("weight", j): partial(at_time, j, partial(forward_weighted, P11, t, one))
                     for j, t in enumerate(times)},
                  ("alive", "one"): partial(at_time, len(times) // 2, partial(alive, one))}
    task = (killed_exact, P11, times, 0, 0, BLOCK_SIZE, integrands, None, "unit-mass")
    rows = _peak_block_rows(lambda: _block(task))
    assert rows < 5.5, rows


def test_killed_exact_block_peak_memory():
    # the three rows of out, then the bridge's proposal and its state, which
    # also holds the crossing probability and the kill flags; it draws its
    # uniforms into the row each interval writes (a four-row grid with its
    # time-0 row peaked at 6.0, and a crossing-probability row and a flag
    # row on top of that made 8.1)
    rng = stream(0, 0)
    rows = _peak_block_rows(lambda: _drawn(killed_exact, P11, (0.5, 1.0, 2.0), rng, BLOCK_SIZE))
    assert rows < 5.5, rows


def _contract_sampler(params, times, rng, n, out):
    """A sampler that refuses anything but the out that the contract hands it."""
    if not (isinstance(out, np.ndarray) and out.shape == (len(times), n)
            and out.dtype == np.float64 and out.flags.writeable):
        raise AssertionError(f"not a writeable ({len(times)}, {n}) float64 out: {out!r}")
    out[...] = rng.random(n)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_draws_hands_every_sampler_its_block_out(workers):
    # two blocks each, so that workers=2 runs both draws on the pool
    times, n = (0.5, 1.0), BLOCK_SIZE + 300
    table = {"estimate": Draw(_contract_sampler, times, n, 11, {"mean": None}),
             "raw": Draw(_contract_sampler, times, n, 12)}
    results = run_draws(P11, table, workers)
    assert results["estimate"]["mean"].n == len(times) * n
    sample = results["raw"]
    assert sample.shape == (len(times), n)
    assert sample.tobytes() == np.concatenate(
        [_drawn(_contract_sampler, P11, times, stream(12, j), m)
         for j, m in enumerate((BLOCK_SIZE, 300))], axis=1).tobytes()


def test_no_sampler_gives_out_a_default():
    # every sampler writes into the out that _block allocates: none of them,
    # nor any that simulate offers, nor a kernel beneath them, has a second
    # mode that allocates its own
    samplers = [fn for fn in vars(ouht.measure).values() if inspect.isfunction(fn)
                and list(inspect.signature(fn).parameters)[:5] == ["params", "times", "rng",
                                                                   "n", "out"]]
    assert {fn.__name__ for fn in samplers} == {"killed_exact", "killed_euler", "radial_exact",
                                                "radial_euler", "ou_exact"}
    kernels = [ouht.simulate.simulate_killed_ou_exact, ouht.simulate.euler_ou,
               ouht.simulate.euler_radial]
    for fn in [*samplers, *ouht.cli._SIM_SAMPLERS.values(), *kernels]:
        out = inspect.signature(fn).parameters["out"]
        assert out.default is inspect.Parameter.empty, fn


@pytest.mark.parametrize("sampler", [
    killed_exact, partial(killed_euler, scheme=SchemeConfig(dt=0.1)), radial_exact,
    partial(radial_euler, scheme=SchemeConfig(dt=0.1)), ou_exact,
], ids=["killed_exact", "killed_euler", "radial_exact", "radial_euler", "ou_exact"])
def test_raw_sample_is_its_blocks_drawn_in_place(sampler):
    # each serial block draws into its columns of the one time-major sample;
    # the bytes are those of the block drawn into an array of its own
    times, n = (0.5, 1.0, 2.0), BLOCK_SIZE + 300
    sample = run_draws(P11, {0: Draw(sampler, times, n, 7)}, workers=1)[0]
    blocks = [_drawn(sampler, P11, times, stream(7, j), m) for j, m in enumerate((BLOCK_SIZE, 300))]
    assert sample.shape == (len(times), n)
    assert sample.tobytes() == np.concatenate(blocks, axis=1).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_run_draws_refuses_a_raw_draw_of_no_paths(workers):
    # on two workers the sample is a shared mapping, and mmap refuses a length of 0
    with pytest.raises(ValueError, match=r"^n_total must be >= 1, got 0$"):
        run_draws(P11, {0: Draw(radial_exact, (1.0,), 0, 0)}, workers)


def test_run_draws_refuses_an_estimate_from_one_path():
    draw = Draw(radial_exact, (1.0,), 1, 0, {0: None})
    with pytest.raises(ValueError, match=r"^need at least 2 samples, got 1$"):
        run_draws(ProcessParams(1.0, 1.0), {0: draw})


def test_pool_raw_blocks_are_drawn_into_a_shared_sample(monkeypatch):
    # the forked workers write each raw block into the parent's sample, so
    # every block sends back None, and the bytes are the serial run's
    results = []

    def recording_map_blocks(worker, tasks, workers):
        results.extend(ouht.rng.map_blocks(worker, tasks, workers))
        return results

    times, n = (0.5, 1.0), 2 * BLOCK_SIZE + 300
    monkeypatch.setattr(ouht.measure, "map_blocks", recording_map_blocks)
    pooled = run_draws(P11, {0: Draw(radial_exact, times, n, 13)}, workers=2)[0]
    assert results == [None, None, None]
    assert multiprocessing.active_children() == []
    serial = run_draws(P11, {0: Draw(radial_exact, times, n, 13)}, workers=1)[0]
    assert pooled.tobytes() == serial.tobytes()


def test_pool_run_starts_no_resource_tracker():
    # the shared sample is an anonymous mapping, not multiprocessing's
    # shared_memory, which starts a resource-tracker process and names a
    # file in /dev/shm
    code = (
        "import multiprocessing\n"
        "from multiprocessing import resource_tracker\n"
        "from ouht.measure import Draw, radial_exact, run_draws\n"
        "from ouht.process import ProcessParams\n"
        "run_draws(ProcessParams(1.0, 1.0), {0: Draw(radial_exact, (1.0,), 70_000, 3)}, 2)\n"
        "print(resource_tracker._resource_tracker._pid, multiprocessing.active_children())\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "None []"
