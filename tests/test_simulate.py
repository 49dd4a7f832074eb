import hashlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from ouht.density import survival_probability
from ouht.process import ProcessParams, radial_transition, sample_radial_exact, time_change
from ouht.rng import BLOCK_SIZE, stream
from ouht.simulate import SchemeConfig, TimeGrid, euler_ou, euler_radial, simulate_killed_ou_exact
from ouht.harness import ks_statistic, ks_two_sample_critical

import refvalues as ref
from reference_samplers import fill, killed_ou_bridge

P11 = ProcessParams(1.0, 1.0)
TRACED = Path(__file__).resolve().parents[1] / "benchmarks" / "traced.py"


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
            TimeGrid(np.linspace(0.0, t_end, n_intervals + 1))
    assert TimeGrid(np.linspace(0.0, 2.0, 5)).n_intervals == 4
    assert TimeGrid.from_times([0.5, 1.0]).times.tolist() == [0.0, 0.5, 1.0]


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(dt=0.0)


def test_exact_killed_survival_matches_closed_form():
    n = 200_000
    paths = fill(simulate_killed_ou_exact, P11, TimeGrid(np.array([0.0, 1.0])), stream(201, 0), n)
    surv = np.mean(paths.values[:, 0] > 0.0)
    target = survival_probability(P11, 1.0)
    assert abs(surv - target) <= 4.0 * math.sqrt(target * (1 - target) / n)


def test_exact_killed_is_grid_independent():
    # the bridge correction makes killing exact in law for any grid
    n = 20_000
    coarse = fill(simulate_killed_ou_exact, P11, TimeGrid(np.linspace(0.0, 1.0, 11)),
                  stream(202, 0), n)
    fine = fill(simulate_killed_ou_exact, P11, TimeGrid(np.linspace(0.0, 1.0, 1001)),
                stream(203, 0), n)
    p1, p2 = (np.mean(paths.values[:, -1] > 0.0) for paths in (coarse, fine))
    se = math.sqrt(p1 * (1 - p1) / n + p2 * (1 - p2) / n)
    assert abs(p1 - p2) <= 4.0 * se


def test_exact_killed_unreachable_boundary():
    paths = fill(
        simulate_killed_ou_exact, ProcessParams(1.0, 50.0), TimeGrid(np.array([0.0, 1.0])),
        stream(204, 0), 50_000
    )
    assert np.all(paths.values > 0.0)


def _every_grid_time(paths, a):
    """paths.values with the shared start column a put back where the
    scheme leaves it out, so every scheme is read on its whole grid."""
    return np.hstack([np.full((paths.n_paths, 1), float(a)), paths.values])


KILLED_SCHEMES = {
    "exact": lambda grid, rng, n: fill(simulate_killed_ou_exact, P11, grid, rng, n),
    "euler": lambda grid, rng, n: fill(euler_ou, P11, grid, SchemeConfig(dt=0.01), rng, n),
}


@pytest.mark.parametrize("scheme", list(KILLED_SCHEMES))
def test_killed_paths_are_positive_until_absorbed_then_zero(scheme):
    # absorption is stored in the values alone: each row is > 0 up to its
    # absorption column and exactly 0 from there on
    paths = KILLED_SCHEMES[scheme](TimeGrid(np.linspace(0.0, 2.0, 9)), stream(205, 0), 5_000)
    values = _every_grid_time(paths, P11.a)
    assert np.all(values[:, 0] == P11.a)
    alive = values > 0.0
    assert np.all(alive | (values == 0.0))
    assert np.all(alive[:, 1:] <= alive[:, :-1])  # no path comes back
    killed = ~alive[:, -1]
    assert 0 < killed.sum() < killed.size
    absorbed_at = np.argmin(alive[killed], axis=1)
    assert np.all((absorbed_at >= 1) & (absorbed_at <= 8))


@pytest.mark.parametrize("scheme", list(KILLED_SCHEMES))
def test_killed_paths_on_sixteen_intervals_are_pinned(scheme):
    seed = {"exact": 220, "euler": 221}[scheme]
    paths = KILLED_SCHEMES[scheme](TimeGrid(np.linspace(0.0, 2.0, 17)), stream(seed, 0), 4096)
    digest = hashlib.sha256(_every_grid_time(paths, P11.a).tobytes()).hexdigest()
    assert digest == ref.KILLED_SHA256_G1_A1_T2_N16[scheme]


@pytest.mark.parametrize("gamma", [1.0, -0.7, 3.0])
@pytest.mark.parametrize("grid", [TimeGrid(np.linspace(0.0, 2.0, 17)),
                                  TimeGrid.from_times((0.3, 1.1, 2.0)),
                                  TimeGrid.from_times((2.0,))], ids=["16", "3", "1"])
def test_exact_killed_kernel_matches_the_allocating_reference(gamma, grid):
    # the in-place, time-major kernel draws the same variates in the same
    # order and applies the same operations, so its bytes are the reference's;
    # two ragged blocks' worth of paths, with absorbed ones among them
    params, n = ProcessParams(gamma, 1.0), BLOCK_SIZE + 4_464
    kernel = fill(simulate_killed_ou_exact, params, grid, stream(230, 0), n)
    reference = killed_ou_bridge(params, grid, stream(230, 0), n)
    assert kernel.values.shape == reference.values.shape == (n, grid.n_intervals)
    assert kernel.values.tobytes() == reference.values.tobytes()
    assert 0 < np.count_nonzero(kernel.values[:, -1] == 0.0) < n


@pytest.mark.parametrize("gamma", [1.0, -0.7, 3.0])
def test_exact_killed_paths_read_plus_zero_once_absorbed(gamma):
    # the kernel kills by multiplying with a 0/1 flag, which leaves -0.0 where
    # a negative proposal is killed; the bytes must hold +0.0 there
    paths = fill(simulate_killed_ou_exact, ProcessParams(gamma, 1.0),
                 TimeGrid(np.linspace(0.0, 2.0, 17)), stream(231, 0), 20_000)
    assert 0 < np.count_nonzero(paths.values[:, -1] == 0.0) < paths.n_paths
    assert not np.any(np.signbit(paths.values))


def test_exact_killed_bridge_holds_still_where_tau_stops():
    # at gamma = -1, tau(20) and tau(40) are both 0.5 in floating point: the
    # second interval has dtau = 0, where no path may cross and none may die
    p = ProcessParams(-1.0, 1.0)
    assert time_change(p, 20.0) == time_change(p, 40.0)
    paths = fill(simulate_killed_ou_exact, p, TimeGrid.from_times((20.0, 40.0)), stream(232, 0),
                 4096)
    alive20, alive40 = paths.values[:, 0] > 0.0, paths.values[:, 1] > 0.0
    assert np.all(np.isfinite(paths.values))
    assert 0 < np.count_nonzero(alive20) < paths.n_paths
    assert np.array_equal(alive40, alive20)


def test_exact_killed_bridge_far_from_zero_survives_without_an_overflow_warning():
    # at a = 1e300 the crossing exponent -2 y y_next / dtau passes the float
    # range; its -inf gives the right crossing probability, 0, and no
    # warning (the pytest settings turn every RuntimeWarning into an error)
    paths = fill(simulate_killed_ou_exact, ProcessParams(1.0, 1e300),
                 TimeGrid(np.linspace(0.0, 1.0, 5)), stream(0, 0), 1000)
    assert np.all(np.isfinite(paths.values))
    assert np.all(paths.values[:, -1] > 0.0)


def test_exact_killed_conditional_law_matches_density():
    # survivors on a many-interval grid must still follow the closed-form
    # conditional law: the bridge removes all grid bias
    n = 200_000
    paths = fill(simulate_killed_ou_exact, P11, TimeGrid(np.linspace(0.0, 1.0, 65)),
                 stream(206, 0), n)
    x = paths.values[:, -1]
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
        paths = fill(euler_ou, p, grid, SchemeConfig(dt=dt), stream(207, k), n)
        gaps.append(np.mean(paths.values[:, 0] > 0.0) - target)
    assert gaps[0] > gaps[1] > 0.0
    assert gaps[1] < 0.03


def test_euler_ou_killed_survival_bias_shrinks_monotonically():
    # documented bias study for the naive scheme at (gamma, a, t) = (1, 1, 1)
    grid = TimeGrid(np.array([0.0, 1.0]))
    target = survival_probability(P11, 1.0)
    n = 100_000
    gaps = []
    for k, dt in enumerate((0.05, 0.02, 0.01, 0.005)):
        paths = fill(euler_ou, P11, grid, SchemeConfig(dt=dt), stream(208, k), n)
        gaps.append(np.mean(paths.values[:, 0] > 0.0) - target)
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
        paths = fill(euler_ou, p, grid, SchemeConfig(dt=dt), stream(209, k), n)
        assert np.all(paths.values > 0.0)
        errors.append(abs(paths.values[:, 0].mean() - p.a * math.exp(-p.gamma)))
    assert errors[0] < 0.01 * p.a  # relative weak error below 1% at dt = 0.04
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.3 <= fine / coarse <= 0.7


def test_euler_ou_killed_mean_error_small_at_centi_step():
    # E[X_t 1_survival] = a e^{-gamma t} exactly; the scheme error at dt = 0.01
    # is the known sqrt(dt) killing bias (~0.018 here), bounded below 0.03
    grid = TimeGrid(np.array([0.0, 1.0]))
    paths = fill(euler_ou, P11, grid, SchemeConfig(dt=0.01), stream(210, 0), 200_000)
    got = paths.values[:, 0].mean()
    assert abs(got - ref.OU_MEAN_G1_A1_T1) < 0.03


def test_euler_radial_outputs_positive_with_rare_clamps():
    grid = TimeGrid(np.array([0.0, 1.0]))
    sample = fill(euler_radial, P11, grid, SchemeConfig(dt=1e-3), stream(211, 0), 20_000)
    assert np.all(np.isfinite(sample.values)) and np.all(sample.values > 0.0)


def test_euler_radial_terminal_law_matches_exact_sampler():
    grid = TimeGrid(np.array([0.0, 1.0]))
    n = 50_000
    sample = fill(euler_radial, P11, grid, SchemeConfig(dt=1e-3), stream(212, 0), n)
    exact = sample_radial_exact(P11, 1.0, stream(213, 0), size=n)
    assert ks_statistic(sample.values[:, 0], exact) < ks_two_sample_critical(n, n, 0.01)


def test_euler_radial_second_moment():
    grid = TimeGrid(np.array([0.0, 1.0]))
    n = 50_000
    dt = 1e-3
    sq = fill(euler_radial, P11, grid, SchemeConfig(dt=dt), stream(214, 0), n).values[:, 0] ** 2
    target = radial_transition(P11, 1.0).mean_square()
    allowance = 4.0 * sq.std(ddof=1) / math.sqrt(n) + 5.0 * dt
    assert abs(sq.mean() - target) <= allowance


def test_euler_radial_near_zero_start_is_pinned_and_positive():
    # from a = 0.05, a step of 0.05 puts R + sqrt(h) z below 0 on two draws
    # in five at the first step; the implicit step maps each to a positive root
    sample = fill(
        euler_radial, ProcessParams(0.5, 0.05), TimeGrid.from_times((0.5, 1.0)),
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
    sample = fill(euler_radial, ProcessParams(1.0, 1e-300), TimeGrid.from_times((h,)),
                  SchemeConfig(dt=h), _ConstantNormal(-40.0), 3)
    r = sample.values[:, 0]
    y, k = 1e-300 - 40.0 * math.sqrt(h), 1.0 + h
    root = 2.0 * h / (math.sqrt(y * y + 4.0 * k * h) - y)
    assert np.all(np.isfinite(r)) and np.all(r > 0.0)
    assert r == pytest.approx(root, rel=1e-12)


def test_euler_radial_keeps_a_negative_y_off_zero_near_the_explosive_limit():
    # k = 1 + gamma*h is about 1e-16 here, so 4kh vanishes next to y^2 and
    # y + sqrt(y^2 + 4kh) cancels to 0 for y < 0 (4,531 of these paths read
    # exactly 0); 2h / (sqrt(y^2 + 4kh) - y) keeps each root positive
    gamma, h, a, n = -499.99999999999994, 0.002, 1e-3, 100_000
    sample = fill(euler_radial, ProcessParams(gamma, a), TimeGrid.from_times((h,)),
                  SchemeConfig(dt=h), stream(1, 0), n)
    r = sample.values[:, 0]
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
        fill(euler_radial, ProcessParams(-600.0, 1.0), grid, SchemeConfig(dt=0.002),
             stream(219, 0), 10)
    # a finer step clears the limit
    sample = fill(euler_radial, ProcessParams(-600.0, 1.0), grid, SchemeConfig(dt=0.001),
                  stream(219, 0), 10)
    assert np.all(np.isfinite(sample.values)) and np.all(sample.values > 0.0)


def test_euler_radial_takes_an_integer_start():
    grid = TimeGrid.from_times((0.5, 1.0))
    ints = fill(euler_radial, ProcessParams(1, 1), grid, SchemeConfig(dt=0.01), stream(218, 0),
                1_000)
    floats = fill(euler_radial, P11, grid, SchemeConfig(dt=0.01), stream(218, 0), 1_000)
    assert ints.values.dtype == np.float64
    assert np.array_equal(ints.values, floats.values)


# grids whose intervals take different substep counts: kernel -> (params,
# observation times, seed, digest of .values.tobytes(), substeps at dt = 0.002)
RAGGED = {
    euler_radial: (ProcessParams(-300.0, 1e-3), (0.01, 0.0105, 0.03), 240,
                   ref.EULER_RADIAL_RAGGED_GM300, 5 + 1 + 10),
    euler_ou: (ProcessParams(1.0, 0.5), (0.3, 0.3005, 0.9), 241,
               ref.EULER_OU_RAGGED_G1_A05, 150 + 1 + 300),
}


def _ragged(kernel, rng):
    params, times, _, _, _ = RAGGED[kernel]
    return fill(kernel, params, TimeGrid.from_times(times), SchemeConfig(0.002), rng, 4096)


@pytest.mark.parametrize("kernel", list(RAGGED), ids=lambda k: k.__name__)
def test_euler_kernels_on_ragged_grids_are_pinned(kernel):
    # the radial grid's k = 1 + gamma*h is 0.4, 0.85 and 0.415 on its three
    # intervals, so both root branches run in one call
    _, _, seed, digest, _ = RAGGED[kernel]
    sample = _ragged(kernel, stream(seed, 0))
    assert hashlib.sha256(sample.values.tobytes()).hexdigest() == digest
    assert np.all(np.isfinite(sample.values)) and np.all(sample.values >= 0.0)


class _CountingNormals:
    """Forwards standard_normal(out=...) to a Generator and records the size
    of each draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def standard_normal(self, out):
        self.sizes.append(out.size)
        return self.rng.standard_normal(out=out)


def _tracer_path_substeps(params, grid, scheme, result):
    spec = importlib.util.spec_from_file_location("ouht_benchmark_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # defines its counters; install() is not called
    return traced._euler_radial_counts((params, grid, scheme), {}, result)["path_substeps"]


@pytest.mark.parametrize("kernel", list(RAGGED), ids=lambda k: k.__name__)
def test_euler_kernels_draw_one_row_per_substep_the_tracer_counts(kernel):
    params, times, seed, _, substeps = RAGGED[kernel]
    rng = _CountingNormals(stream(seed, 0))
    sample = _ragged(kernel, rng)
    assert rng.sizes == [4096] * substeps
    grid, scheme = TimeGrid.from_times(times), SchemeConfig(0.002)
    assert _tracer_path_substeps(params, grid, scheme, sample) == 4096 * substeps


@pytest.mark.parametrize("kernel", [euler_ou, euler_radial], ids=lambda k: k.__name__)
@pytest.mark.parametrize("n_paths", [0, -1])
def test_euler_kernels_refuse_n_paths_below_one_before_allocating(kernel, n_paths):
    # a kernel that allocated its scratch rows first would raise numpy's
    # "negative dimensions are not allowed" for -1
    grid = TimeGrid(np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match=rf"^n_paths must be >= 1, got {n_paths}$"):
        kernel(P11, grid, SchemeConfig(dt=0.01), stream(0, 0), n_paths, np.empty((4, 0)))


def test_exact_killed_refuses_n_paths_below_one():
    grid = TimeGrid(np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match=r"^n_paths must be >= 1, got 0$"):
        simulate_killed_ou_exact(P11, grid, stream(0, 0), 0, np.empty((4, 0)))


@pytest.mark.parametrize("kernel", [euler_ou, euler_radial], ids=lambda k: k.__name__)
def test_euler_paths_leave_out_the_shared_start(kernel):
    # two columns on the three grid times 0, 0.5 and 1: time 0 is left out
    paths = fill(kernel, P11, TimeGrid(np.linspace(0.0, 1.0, 3)), SchemeConfig(dt=0.1),
                 stream(0, 0), 3)
    assert paths.values.shape == (3, 2)


def test_simulations_are_seed_deterministic():
    grid = TimeGrid(np.linspace(0.0, 1.0, 9))
    a = fill(simulate_killed_ou_exact, P11, grid, stream(216, 0), 2_000)
    b = fill(simulate_killed_ou_exact, P11, grid, stream(216, 0), 2_000)
    assert np.array_equal(a.values, b.values)

    ea = fill(euler_radial, P11, grid, SchemeConfig(dt=0.01), stream(217, 0), 2_000)
    eb = fill(euler_radial, P11, grid, SchemeConfig(dt=0.01), stream(217, 0), 2_000)
    assert np.array_equal(ea.values, eb.values)
