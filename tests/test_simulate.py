import hashlib
import math

import numpy as np
import pytest

from ouht.density import survival_probability
from ouht.process import ProcessParams, radial_transition, sample_radial_exact
from ouht.rng import BLOCK_SIZE, stream
from ouht.simulate import SchemeConfig, TimeGrid, euler_ou, euler_radial, simulate_killed_ou_exact
from ouht.harness import ks_statistic, ks_two_sample_critical

import refvalues as ref
from reference_samplers import killed_ou_bridge

P11 = ProcessParams(1.0, 1.0)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.5, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    for bad in ([], [[0.0, 1.0]], [0.0, np.inf], [0.0, np.nan]):
        with pytest.raises(ValueError):
            TimeGrid(np.array(bad))
    for t_end, n_intervals in ((0.0, 4), (-1.0, 4), (1.0, 0)):
        with pytest.raises(ValueError):
            TimeGrid.uniform(t_end, n_intervals)
    grid = TimeGrid.uniform(2.0, 4)
    assert grid.n_intervals == 4
    assert grid.index_of(1.0) == 2
    with pytest.raises(ValueError):
        grid.index_of(0.3)
    assert TimeGrid.from_times([0.5, 1.0]).times.tolist() == [0.0, 0.5, 1.0]


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.0)


def test_exact_killed_survival_matches_closed_form():
    n = 200_000
    paths = simulate_killed_ou_exact(P11, TimeGrid(np.array([0.0, 1.0])), stream(201, 0), n)
    surv = paths.survival_fraction(1.0)
    target = survival_probability(P11, 1.0)
    assert abs(surv - target) <= 4.0 * math.sqrt(target * (1 - target) / n)


def test_exact_killed_is_grid_independent():
    # the bridge correction makes killing exact in law for any grid
    n = 20_000
    coarse = simulate_killed_ou_exact(P11, TimeGrid.uniform(1.0, 10), stream(202, 0), n)
    fine = simulate_killed_ou_exact(P11, TimeGrid.uniform(1.0, 1000), stream(203, 0), n)
    p1, p2 = coarse.survival_fraction(1.0), fine.survival_fraction(1.0)
    se = math.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
    assert abs(p1 - p2) <= 4.0 * se


def test_exact_killed_unreachable_boundary():
    paths = simulate_killed_ou_exact(
        ProcessParams(1.0, 50.0), TimeGrid(np.array([0.0, 1.0])), stream(204, 0), 50_000
    )
    assert np.all(paths.values > 0.0)
    assert paths.survival_fraction(1.0) == 1.0


def _every_grid_time(paths, a):
    """paths.values with the shared start column a put back where the
    scheme leaves it out, so every scheme is read on its whole grid."""
    return np.hstack([np.full((paths.n_paths, paths.start), float(a)), paths.values])


KILLED_SCHEMES = {
    "exact": lambda grid, rng, n: simulate_killed_ou_exact(P11, grid, rng, n),
    "euler": lambda grid, rng, n: euler_ou(P11, grid, SchemeConfig(dt=0.01), rng, n),
}


@pytest.mark.parametrize("scheme", list(KILLED_SCHEMES))
def test_killed_paths_are_positive_until_absorbed_then_zero(scheme):
    # absorption is stored in the values alone: each row is > 0 up to its
    # absorption column and exactly 0 from there on
    paths = KILLED_SCHEMES[scheme](TimeGrid.uniform(2.0, 8), stream(205, 0), 5_000)
    values = _every_grid_time(paths, P11.a)
    assert np.all(values[:, 0] == P11.a)
    alive = values > 0.0
    assert np.all(alive | (values == 0.0))
    assert np.all(alive[:, 1:] <= alive[:, :-1])  # no path comes back
    killed = ~alive[:, -1]
    assert 0 < killed.sum() < killed.size
    absorbed_at = np.argmin(alive[killed], axis=1)
    assert np.all((absorbed_at >= 1) & (absorbed_at <= 8))
    for t in (0.25, 1.0, 2.0):
        assert paths.survival_fraction(t) == np.mean(paths.values_at(t) > 0.0)


@pytest.mark.parametrize("scheme", list(KILLED_SCHEMES))
def test_killed_paths_on_sixteen_intervals_are_pinned(scheme):
    seed = {"exact": 220, "euler": 221}[scheme]
    paths = KILLED_SCHEMES[scheme](TimeGrid.uniform(2.0, 16), stream(seed, 0), 4096)
    digest = hashlib.sha256(_every_grid_time(paths, P11.a).tobytes()).hexdigest()
    assert digest == ref.KILLED_SHA256_G1_A1_T2_N16[scheme]


@pytest.mark.parametrize("gamma", [1.0, -0.7, 3.0])
@pytest.mark.parametrize("grid", [TimeGrid.uniform(2.0, 16), TimeGrid.from_times((0.3, 1.1, 2.0)),
                                  TimeGrid.from_times((2.0,))], ids=["16", "3", "1"])
def test_exact_killed_kernel_matches_the_allocating_reference(gamma, grid):
    # the in-place, time-major kernel draws the same variates in the same
    # order and applies the same operations, so its bytes are the reference's;
    # two ragged blocks' worth of paths, with absorbed ones among them
    params, n = ProcessParams(gamma, 1.0), BLOCK_SIZE + 4_464
    kernel = simulate_killed_ou_exact(params, grid, stream(230, 0), n)
    reference = killed_ou_bridge(params, grid, stream(230, 0), n)
    assert kernel.values.shape == reference.values.shape == (n, grid.times.size)
    assert kernel.values.tobytes() == reference.values.tobytes()
    assert 0 < np.count_nonzero(kernel.values[:, -1] == 0.0) < n


@pytest.mark.parametrize("gamma", [1.0, -0.7, 3.0])
def test_exact_killed_paths_read_plus_zero_once_absorbed(gamma):
    # the kernel kills by multiplying with a 0/1 flag, which leaves -0.0 where
    # a negative proposal is killed; the bytes must hold +0.0 there
    paths = simulate_killed_ou_exact(ProcessParams(gamma, 1.0), TimeGrid.uniform(2.0, 16),
                                     stream(231, 0), 20_000)
    assert 0 < np.count_nonzero(paths.values[:, -1] == 0.0) < paths.n_paths
    assert not np.any(np.signbit(paths.values))


def test_exact_killed_conditional_law_matches_density():
    # survivors on a many-interval grid must still follow the closed-form
    # conditional law: the bridge removes all grid bias
    n = 200_000
    paths = simulate_killed_ou_exact(P11, TimeGrid.uniform(1.0, 64), stream(206, 0), n)
    x = paths.values_at(1.0)
    survivors = np.sort(x[x > 0.0])
    cdf = np.array([ref.killed_conditional_cdf(1.0, 1.0, 1.0, v) for v in survivors])
    ecdf = np.arange(1, survivors.size + 1) / survivors.size
    d = np.max(np.abs(ecdf - cdf))
    assert d <= 1.628 / math.sqrt(survivors.size)  # 1% one-sample critical value


def test_euler_ou_gamma_zero_approaches_reflected_survival():
    # killed Brownian motion: survival erf(a / sqrt(2 t)); the sign-check
    # scheme overshoots by O(sqrt(dt)) and the overshoot must shrink
    p = ProcessParams(0.0, 1.0)
    grid = TimeGrid(np.array([0.0, 1.0]))
    target = math.erf(1.0 / math.sqrt(2.0))
    n = 100_000
    gaps = []
    for k, dt in enumerate((0.05, 0.005)):
        paths = euler_ou(p, grid, SchemeConfig(dt=dt), stream(207, k), n)
        gaps.append(paths.survival_fraction(1.0) - target)
    assert gaps[0] > gaps[1] > 0.0
    assert gaps[1] < 0.03


def test_euler_ou_killed_survival_bias_shrinks_monotonically():
    # documented bias study for the naive scheme at (gamma, a, t) = (1, 1, 1)
    grid = TimeGrid(np.array([0.0, 1.0]))
    target = survival_probability(P11, 1.0)
    n = 100_000
    gaps = []
    for k, dt in enumerate((0.05, 0.02, 0.01, 0.005)):
        paths = euler_ou(P11, grid, SchemeConfig(dt=dt), stream(208, k), n)
        gaps.append(paths.survival_fraction(1.0) - target)
    assert all(g > 0 for g in gaps)  # sign checks only ever miss killings
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_euler_ou_drift_error_is_first_order_without_killing():
    # with the boundary out of reach the scheme is plain Euler OU, whose mean
    # error a |(1 - gamma h)^{t/h} - e^{-gamma t}| halves with the step
    p = ProcessParams(1.0, 50.0)
    grid = TimeGrid(np.array([0.0, 1.0]))
    n = 200_000
    errors = []
    for k, dt in enumerate((0.04, 0.02, 0.01)):
        paths = euler_ou(p, grid, SchemeConfig(dt=dt), stream(209, k), n)
        assert np.all(paths.values > 0.0)
        errors.append(abs(paths.values_at(1.0).mean() - p.a * math.exp(-p.gamma)))
    assert errors[0] < 0.01 * p.a  # relative weak error below 1% at dt = 0.04
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.3 <= fine / coarse <= 0.7


def test_euler_ou_killed_mean_error_small_at_centi_step():
    # E[X_t 1_survival] = a e^{-gamma t} exactly; the scheme error at dt = 0.01
    # is the known sqrt(dt) killing bias (~0.018 here), bounded below 0.03
    grid = TimeGrid(np.array([0.0, 1.0]))
    paths = euler_ou(P11, grid, SchemeConfig(dt=0.01), stream(210, 0), 200_000)
    got = paths.values_at(1.0).mean()
    assert abs(got - ref.OU_MEAN_G1_A1_T1) < 0.03


def test_euler_radial_outputs_positive_with_rare_clamps():
    grid = TimeGrid(np.array([0.0, 1.0]))
    sample = euler_radial(P11, grid, SchemeConfig(dt=1e-3), stream(211, 0), 20_000)
    assert np.all(np.isfinite(sample.values)) and np.all(sample.values > 0.0)


def test_euler_radial_terminal_law_matches_exact_sampler():
    grid = TimeGrid(np.array([0.0, 1.0]))
    n = 50_000
    sample = euler_radial(P11, grid, SchemeConfig(dt=1e-3), stream(212, 0), n)
    exact = sample_radial_exact(P11, 1.0, stream(213, 0), size=n)
    assert ks_statistic(sample.values_at(1.0), exact) < ks_two_sample_critical(n, n, 0.01)


def test_euler_radial_second_moment():
    grid = TimeGrid(np.array([0.0, 1.0]))
    n = 50_000
    dt = 1e-3
    sq = euler_radial(P11, grid, SchemeConfig(dt=dt), stream(214, 0), n).values_at(1.0) ** 2
    target = radial_transition(P11, 1.0).mean_square()
    allowance = 4.0 * sq.std(ddof=1) / math.sqrt(n) + 5.0 * dt
    assert abs(sq.mean() - target) <= allowance


def test_euler_radial_near_zero_start_is_pinned_and_positive():
    # from a = 0.05, a step of 0.05 puts R + sqrt(h) z below 0 on two draws
    # in five at the first step; the implicit step maps each to a positive root
    sample = euler_radial(
        ProcessParams(0.5, 0.05), TimeGrid.from_times((0.5, 1.0)),
        SchemeConfig(dt=0.05), stream(4, 0), 4096,
    )
    values = _every_grid_time(sample, 0.05)
    assert hashlib.sha256(values.tobytes()).hexdigest() == ref.EULER_RADIAL_G05_A005_DT005
    assert np.all(np.isfinite(sample.values)) and np.all(sample.values > 0.0)


class _ConstantNormal:
    """Stands in for a Generator whose every normal draw is z."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, out):
        out[...] = self.z


def test_euler_radial_step_from_near_zero_stays_positive():
    # explicit Euler would add h / r = 1e297 here; the implicit step solves
    # k R'^2 - y R' - h = 0, whose positive root is 2h / (sqrt(y^2 + 4kh) - y)
    # without cancellation for y < 0
    h = 1e-3
    sample = euler_radial(ProcessParams(1.0, 1e-300), TimeGrid.from_times((h,)),
                          SchemeConfig(dt=h), _ConstantNormal(-40.0), 3)
    r = sample.values_at(h)
    y, k = 1e-300 - 40.0 * math.sqrt(h), 1.0 + h
    root = 2.0 * h / (math.sqrt(y * y + 4.0 * k * h) - y)
    assert np.all(np.isfinite(r)) and np.all(r > 0.0)
    assert r == pytest.approx(root, rel=1e-12)


def test_euler_radial_keeps_a_negative_y_off_zero_near_the_explosive_limit():
    # k = 1 + gamma*h is about 1e-16 here, so 4kh vanishes next to y^2 and
    # y + sqrt(y^2 + 4kh) cancels to 0 for y < 0 (4,531 of these paths read
    # exactly 0); 2h / (sqrt(y^2 + 4kh) - y) keeps each root positive
    gamma, h, a, n = -499.99999999999994, 0.002, 1e-3, 100_000
    sample = euler_radial(ProcessParams(gamma, a), TimeGrid.from_times((h,)),
                          SchemeConfig(dt=h), stream(1, 0), n)
    r = sample.values_at(h)
    assert np.all(r > 0.0)
    y = a + math.sqrt(h) * stream(1, 0).standard_normal(n)
    k = 1.0 + gamma * h
    s = np.sqrt(y * y + 4.0 * k * h)
    neg = y < 0.0
    assert np.count_nonzero(neg) > 1_000
    assert np.allclose(r[neg], 2.0 * h / (s[neg] - y[neg]), rtol=1e-15, atol=0.0)
    assert np.allclose(r[~neg], (y[~neg] + s[~neg]) / (2.0 * k), rtol=1e-15, atol=0.0)


def test_euler_radial_rejects_a_step_past_the_explosive_limit():
    # 1 + gamma*h = 1 - 600 * 0.002 < 0: the step's quadratic has no positive root
    grid = TimeGrid.from_times((0.1,))
    with pytest.raises(ValueError, match=r"gamma = -600 with substep h = 0\.002"):
        euler_radial(ProcessParams(-600.0, 1.0), grid, SchemeConfig(dt=0.002), stream(219, 0), 10)
    # a finer step clears the limit
    sample = euler_radial(ProcessParams(-600.0, 1.0), grid, SchemeConfig(dt=0.001), stream(219, 0), 10)
    assert np.all(np.isfinite(sample.values)) and np.all(sample.values > 0.0)


def test_euler_radial_takes_an_integer_start():
    grid = TimeGrid.from_times((0.5, 1.0))
    ints = euler_radial(ProcessParams(1, 1), grid, SchemeConfig(dt=0.01), stream(218, 0), 1_000)
    floats = euler_radial(P11, grid, SchemeConfig(dt=0.01), stream(218, 0), 1_000)
    assert ints.values.dtype == np.float64
    assert np.array_equal(ints.values, floats.values)


def test_simulations_are_seed_deterministic():
    grid = TimeGrid.uniform(1.0, 8)
    a = simulate_killed_ou_exact(P11, grid, stream(216, 0), 2_000)
    b = simulate_killed_ou_exact(P11, grid, stream(216, 0), 2_000)
    assert np.array_equal(a.values, b.values)

    ea = euler_radial(P11, grid, SchemeConfig(dt=0.01), stream(217, 0), 2_000)
    eb = euler_radial(P11, grid, SchemeConfig(dt=0.01), stream(217, 0), 2_000)
    assert np.array_equal(ea.values, eb.values)
