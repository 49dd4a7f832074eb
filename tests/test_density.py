import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import ouht.density
from ouht.density import (
    _NODES,
    _WEIGHTS,
    density_identity_residual,
    gaussian_pdf,
    killed_density_mass,
    killed_expectation_quadrature,
    killed_ou_density,
    radial_density,
    radial_density_mass,
    relative_identity_residual,
    survival_probability,
)
from ouht.measure import default_functional_suite
from ouht.process import ProcessParams, ou_transition, radial_transition

import refvalues as ref

SWEEP_GAMMAS = (-0.5, 0.0, 1.0)
SWEEP_TIMES = (0.25, 1.0, 4.0)
SWEEP_STARTS = (0.5, 1.0, 3.0)
EPS = np.finfo(float).eps
# (gamma, a, t) where quadrature in x lost the law: a window narrower than
# about 1e-8 of its center, or one that collapsed to a single float
SCALE_EDGES = [(1.0, 1e10, 1.0), (1.0, 1e150, 1.0), (1.0, 1.0, 1e-6), (1.0, 1.0, 1e-20),
               (1.0, 1.0, 1e-300)]


def _log_grid(params, t, n=500):
    law = radial_transition(params, t)
    hi = law.center + 10.0 * math.sqrt(law.sigma2)
    return np.geomspace(hi * 1e-4, hi, n)


def test_gaussian_pdf_examples():
    assert gaussian_pdf(0.0, 1.0) == pytest.approx(ref.STD_NORMAL_AT_0, rel=1e-14)
    assert gaussian_pdf(1.0, 1.0) == pytest.approx(ref.STD_NORMAL_AT_1, rel=1e-14)
    ys = np.linspace(-4, 4, 17)
    for v in (0.3, 1.0, 5.0):
        assert np.array_equal(gaussian_pdf(ys, v), gaussian_pdf(-ys, v))
    with pytest.raises(ValueError):
        gaussian_pdf(0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_pdf(0.0, -1.0)


def test_survival_examples():
    p = ProcessParams(1.0, 1.0)
    assert survival_probability(p, 1e-12) == pytest.approx(1.0, abs=1e-6)
    assert survival_probability(ProcessParams(1.0, 40.0), 1.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        survival_probability(p, 0.0)
    with pytest.raises(ValueError):
        survival_probability(p, -1.0)
    # strictly decreasing in t
    vals = [survival_probability(p, t) for t in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_survival_matches_prebuild_mc_oracle():
    # value pinned by the standalone killed-Brownian MC run before the build
    closed = survival_probability(ProcessParams(1.0, 1.0), 1.0)
    assert abs(closed - ref.SURVIVAL_ORACLE_G1_A1_T1) <= 4.0 * ref.SURVIVAL_ORACLE_STDERR


def test_survival_agrees_with_independent_formula():
    for gamma in SWEEP_GAMMAS:
        for a in SWEEP_STARTS:
            for t in SWEEP_TIMES:
                got = survival_probability(ProcessParams(gamma, a), t)
                assert got == pytest.approx(ref.reflection_survival(gamma, a, t), rel=1e-13)
                assert 0.0 < got < 1.0


def test_killed_density_limits_and_domain():
    p = ProcessParams(1.0, 1.0)
    assert killed_ou_density(p, 1.0, 0.0) == 0.0
    assert killed_ou_density(p, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValueError):
        killed_ou_density(p, 0.0, 1.0)
    with pytest.raises(ValueError):
        killed_ou_density(p, 1.0, -0.5)


def test_density_masses_across_sweep():
    for gamma in SWEEP_GAMMAS:
        for a in SWEEP_STARTS:
            for t in SWEEP_TIMES:
                p = ProcessParams(gamma, a)
                assert abs(killed_density_mass(p, t) - survival_probability(p, t)) <= 1e-8
                assert abs(radial_density_mass(p, t) - 1.0) <= 1e-8


def test_density_masses_of_a_narrow_peak_far_from_zero():
    # at t = 1e-6 both densities are spikes of width ~1e-3 at x = 30; the
    # quadrature window must start near the spike or it never samples it
    p = ProcessParams(1.0, 30.0)
    assert abs(killed_density_mass(p, 1e-6) - survival_probability(p, 1e-6)) <= 1e-8
    assert abs(radial_density_mass(p, 1e-6) - 1.0) <= 1e-8


@pytest.mark.parametrize("gamma,t", [(50.0, 6.9), (300.0, 1.1)])
def test_killed_mass_is_relatively_accurate_at_tiny_survival(gamma, t):
    # S(t) is about 1e-149 and 1e-142 here, so an absolute bound says nothing
    p = ProcessParams(gamma, 1.0)
    s = survival_probability(p, t)
    assert abs(killed_density_mass(p, t) - s) <= 1e-12 * s


@settings(max_examples=300, derandomize=True, deadline=None)
@given(gamma=st.floats(-2.0, 5.0), log_a=st.floats(-3.0, 150.0), log_t=st.floats(-300.0, 0.5))
def test_density_masses_hold_at_every_scale(gamma, log_a, log_t):
    # a, t and u = a / sqrt(tau) over hundreds of decades: the quadrature
    # window in W never narrows against its center
    p, t = ProcessParams(gamma, 10.0**log_a), 10.0**log_t
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        s = survival_probability(p, t)
        assert abs(killed_density_mass(p, t) - s) <= 1e-12 * s
        assert abs(radial_density_mass(p, t) - 1.0) <= 1e-12


@pytest.mark.parametrize("gamma,a,t", SCALE_EDGES)
def test_killed_quadrature_of_a_tail_at_the_scale_edges(gamma, a, t):
    # 1(x > c) with c at the killed center, against the CDF formula.  Both
    # carry an input error of about eps * u, from rounding c and its image in
    # W, so the comparison says nothing where u is past 1e15, as at a = 1e150
    # and t = 1e-300; the two halves must still add up to S(t) there
    p = ProcessParams(gamma, a)
    law = ou_transition(p, t)
    c, u = law.mean, law.mean / math.sqrt(law.variance)
    s = survival_probability(p, t)
    above = killed_expectation_quadrature(p, t, lambda x: (x > c) * 1.0, (c,))
    below = killed_expectation_quadrature(p, t, lambda x: (x <= c) * 1.0, (c,))
    assert abs(above + below - s) <= 1e-12 * s
    assert abs(above - ref.killed_tail_probability(gamma, a, t, c)) <= 1e-12 + 4.0 * EPS * u


def test_literal_gauss_legendre_rule_is_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(20)
    for got, want in ((_NODES, nodes), (_WEIGHTS, weights)):
        assert got.shape == want.shape == (20,)
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    assert np.array_equal(_NODES, -_NODES[::-1])
    assert np.array_equal(_WEIGHTS, _WEIGHTS[::-1])


def _adaptive_quad(fn, lo, hi, points=None):
    """scipy's adaptive quadrature with the settings the runtime once used:
    the reference for the Gauss-Legendre rule."""
    val, _ = integrate.quad(fn, lo, hi, points=points, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_gauss_legendre_rule_matches_adaptive_quadrature(t):
    p = ProcessParams(1.0, 1.0)
    # both densities are negligible outside 12 sd of the center, in x
    law = radial_transition(p, t)
    spread = 12.0 * math.sqrt(law.sigma2)
    lo, hi = max(0.0, law.center - spread), law.center + spread
    pairs = [
        (killed_density_mass(p, t),
         _adaptive_quad(lambda x: killed_ou_density(p, t, x), lo, hi)),
        (radial_density_mass(p, t),
         _adaptive_quad(lambda x: radial_density(p, t, x), lo, hi)),
    ]
    for f in default_functional_suite():
        pts = sorted(b for b in f.breakpoints if lo < b < hi) or None
        pairs.append((killed_expectation_quadrature(p, t, f, f.breakpoints),
                      _adaptive_quad(lambda x: f(x) * killed_ou_density(p, t, x), lo, hi, pts)))
    for got, want in pairs:
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_killed_density_reduces_to_reflected_brownian_at_gamma_zero():
    # naive two-Gaussian difference, written out independently
    a, t = 1.0, 1.0
    p = ProcessParams(0.0, a)
    xs = np.linspace(0.05, 8.0, 400)
    naive = stats.norm.pdf(xs - a, scale=math.sqrt(t)) - stats.norm.pdf(
        xs + a, scale=math.sqrt(t)
    )
    got = killed_ou_density(p, t, xs)
    assert np.max(np.abs(got - naive) / naive) <= 1e-12


def test_radial_density_two_derivations_agree():
    # library: Gaussian-norm route; here: the clock route, written directly
    for gamma, a, t in [(1.0, 1.0, 1.0), (-0.5, 2.0, 0.7), (0.0, 1.0, 1.0)]:
        p = ProcessParams(gamma, a)
        tau = ref.brownian_clock(gamma, t)
        xs = np.linspace(0.01, 6.0, 300)
        y = xs * math.exp(gamma * t)
        clock_route = (
            math.exp(gamma * t)
            * (y / a)
            * (
                stats.norm.pdf(y - a, scale=math.sqrt(tau))
                - stats.norm.pdf(y + a, scale=math.sqrt(tau))
            )
        )
        got = radial_density(p, t, xs)
        mask = clock_route > 1e-290
        rel = np.abs(got[mask] - clock_route[mask]) / clock_route[mask]
        assert rel.max() <= 1e-10


def test_radial_density_matches_noncentral_chisquare_pdf():
    # R^2/sigma2 ~ ncx2(3, center^2/sigma2): scipy's Bessel-based pdf is an
    # independent derivation of the same density
    for gamma, a, t in [(1.0, 1.0, 1.0), (-0.5, 0.5, 2.0), (0.0, 3.0, 0.25)]:
        p = ProcessParams(gamma, a)
        law = radial_transition(p, t)
        xs = np.linspace(0.05, law.center + 6 * math.sqrt(law.sigma2), 200)
        lam = law.center**2 / law.sigma2
        other = (2.0 * xs / law.sigma2) * stats.ncx2.pdf(xs * xs / law.sigma2, 3, lam)
        got = radial_density(p, t, xs)
        mask = other > 1e-280
        assert np.max(np.abs(got[mask] - other[mask]) / other[mask]) <= 1e-9


def test_radial_density_maxwell_limit_when_center_underflows():
    # for gamma t large the center a e^{-gamma t} underflows to 0 and the law
    # becomes the Maxwell density 2 x^2 phi_s(x) / s
    p = ProcessParams(1.0, 1.0)
    t = 800.0
    law = radial_transition(p, t)
    assert law.center == 0.0
    xs = np.array([0.3, 1.0, 2.5])
    maxwell = 2.0 * xs**2 * stats.norm.pdf(xs, scale=math.sqrt(law.sigma2)) / law.sigma2
    got = radial_density(p, t, xs)
    assert np.all(np.isfinite(got))
    assert got == pytest.approx(maxwell, rel=1e-13)
    assert abs(radial_density_mass(p, t) - 1.0) <= 1e-8
    # with u = 0, an x / sd past the float range must not give 0 * inf = NaN
    x_max = np.finfo(float).max
    assert killed_ou_density(p, t, x_max) == radial_density(p, t, x_max) == 0.0


def test_radial_density_zero_limit_and_domain():
    p = ProcessParams(1.0, 1.0)
    assert radial_density(p, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        radial_density(p, -1.0, 1.0)
    with pytest.raises(ValueError):
        radial_density(p, 1.0, np.array([0.5, -0.5]))


def _suite_residual_grid(params, t):
    # the grid of the suite's htransform-residual row
    law = radial_transition(params, t)
    hi = law.center + 10.0 * math.sqrt(law.sigma2)
    return np.geomspace(hi * 1e-4, hi, 500)


def test_identity_residual_leaves_out_subnormal_sides():
    # at a = 100, t = 1 the grid reaches x = 11.48, where the two sides are
    # 1.24e-322 and 1.3e-322: subnormals with about two significant digits,
    # whose relative difference (0.04) says nothing about the identity
    p = ProcessParams(1.0, 100.0)
    assert relative_identity_residual(p, 1.0, _suite_residual_grid(p, 1.0)).max() <= 1e-12


@pytest.mark.parametrize("a,t", [(1.0, 1.0), (100.0, 1.0), (1.0, 1e-6), (1e10, 1.0)],
                         ids=["1.0", "100.0", "t=1e-06", "1e10"])
def test_identity_residual_sees_a_relative_error_of_1e_10(monkeypatch, a, t):
    # the residual is at rounding level on the suite's grid, at t = 1e-6 and
    # a = 1e10 as well, where it once read 2e-12 and 1: a relative error of
    # 1e-10 in one side still stands out
    p = ProcessParams(1.0, a)
    grid = _suite_residual_grid(p, t)
    assert relative_identity_residual(p, t, grid).max() <= 1e-12
    sides = ouht.density._identity_sides

    def skewed(params, t, x):
        lhs, rhs, q = sides(params, t, x)
        return lhs * (1.0 + 1e-10), rhs, q

    monkeypatch.setattr(ouht.density, "_identity_sides", skewed)
    assert relative_identity_residual(p, t, grid).max() > 1e-12


def test_identity_residual_leaves_out_a_subnormal_radial_density():
    # at gamma = a = t = 1 the radial density is 2.4e-320 at x = 1e-160 and 0
    # from x = 1e-162 down, while (a/x) e^{-gamma t} q(x) and the killed side
    # are normal: the residual read 8.0e-6 and 1, where q's lost digits are
    # all it measured.  Where q is normal again (x = 1e-150) it is still read
    p = ProcessParams(1.0, 1.0)
    xs = np.array([1e-200, 1e-162, 1e-160, 1e-150])
    assert radial_density(p, 1.0, xs[2]) < np.finfo(float).tiny <= killed_ou_density(p, 1.0, xs[2])
    assert relative_identity_residual(p, 1.0, xs[:3]).tolist() == [0.0, 0.0, 0.0]
    assert 0.0 < relative_identity_residual(p, 1.0, xs[3]) <= 1e-12


@pytest.mark.parametrize("x", [5e-324, 1e160, 1e300, 1.7976931348623157e308])
def test_densities_far_out_in_the_tail_are_0_without_an_overflow_warning(x):
    # far out, the Gaussian exponent's square (and at the float maximum x / sd
    # too) overflows to inf, and exp(-inf) = 0 is the right density.  At
    # x = 5e-324, a/x overflows and q(x) is 0, so the identity's right side is
    # 0 and the residual is the subnormal killed side.  RuntimeWarnings are
    # errors under this suite
    p = ProcessParams(1.0, 1.0)
    far = x > 1.0
    assert (gaussian_pdf(x, 1.0) == 0.0) == far
    killed = killed_ou_density(p, 1.0, x)
    assert 0.0 <= killed < np.finfo(float).tiny and (killed == 0.0) == far
    assert radial_density(p, 1.0, x) == 0.0
    assert density_identity_residual(p, 1.0, x) == killed
    assert relative_identity_residual(p, 1.0, x) == 0.0


def test_identity_residual_examples():
    assert relative_identity_residual(ProcessParams(1.0, 1.0), 1.0, 0.5) <= 1e-12
    assert relative_identity_residual(ProcessParams(-0.5, 2.0), 0.7, 1.3) <= 1e-12
    # raw residual on the Brownian case is rounding-level too
    got = density_identity_residual(ProcessParams(0.0, 1.0), 1.0, 0.7)
    assert abs(got) <= 1e-15


@pytest.mark.parametrize("residual", [density_identity_residual, relative_identity_residual])
@pytest.mark.parametrize("x", [0.0, [0.0, 1.0]])
def test_identity_residuals_refuse_x_at_0(residual, x):
    # (a/x) q(x) divides by x: both residuals share one rule instead
    with pytest.raises(ValueError, match="x must be > 0"):
        residual(ProcessParams(1.0, 1.0), 1.0, x)


def test_identity_residual_sweep_on_log_grids():
    for gamma in SWEEP_GAMMAS:
        for a in SWEEP_STARTS:
            for t in SWEEP_TIMES:
                p = ProcessParams(gamma, a)
                xs = _log_grid(p, t)
                assert relative_identity_residual(p, t, xs).max() <= 1e-12


def test_identity_residual_at_tiny_survival_on_the_suite_grid():
    # S(6.9) is about 1e-149 at gamma 50: at the grid top the killed density's
    # bracket, formed on the tau clock apart from e^{gamma t}, is about 1e-319,
    # a subnormal (the residual was 7.1e-6)
    p, t = ProcessParams(50.0, 1.0), 6.9
    law = radial_transition(p, t)
    hi = law.center + 10.0 * math.sqrt(law.sigma2)
    xs = np.geomspace(hi * 1e-4, hi, 500)  # the htransform-residual row's grid
    assert relative_identity_residual(p, t, xs).max() < 1e-12


def test_densities_nonnegative_on_their_domain():
    for gamma in SWEEP_GAMMAS:
        p = ProcessParams(gamma, 1.0)
        xs = _log_grid(p, 1.0)
        assert np.all(killed_ou_density(p, 1.0, xs) >= 0.0)
        assert np.all(radial_density(p, 1.0, xs) >= 0.0)


def test_killed_expectation_quadrature_against_cdf_formula():
    p = ProcessParams(1.0, 1.0)
    got = killed_expectation_quadrature(p, 1.0, lambda x: (x > 1.0) * 1.0, breakpoints=(1.0,))
    assert got == pytest.approx(ref.killed_tail_probability(1.0, 1.0, 1.0, 1.0), abs=1e-10)
    # plain quadrature of the identity functional: E[X_t on survival] = a e^{-gamma t}
    got_mean = killed_expectation_quadrature(p, 1.0, lambda x: x)
    assert got_mean == pytest.approx(ref.OU_MEAN_G1_A1_T1, abs=1e-10)
