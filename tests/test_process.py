import math

import numpy as np
import pytest
from scipy import stats

from ouht.harness import ks_statistic, ks_two_sample_critical
from ouht.process import (
    GaussianLaw,
    _gaussian_norm,
    ProcessParams,
    martingale_value,
    ou_transition,
    radial_transition,
    sample_ou_exact,
    sample_radial_exact,
    time_change,
)
from ouht.rng import stream

import refvalues as ref
from reference_samplers import gaussian_norm_3d

GAMMAS = (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ProcessParams(gamma=1.0, a=0.0)
    with pytest.raises(ValueError):
        ProcessParams(gamma=1.0, a=-2.0)
    with pytest.raises(ValueError):
        ProcessParams(gamma=math.nan, a=1.0)
    with pytest.raises(ValueError):
        ProcessParams(gamma=math.inf, a=1.0)
    ProcessParams(gamma=-3.0, a=0.25)  # negative rates are fine


def test_time_change_examples():
    assert time_change(ProcessParams(0.0, 1.0), 1.7) == pytest.approx(1.7, abs=1e-15)
    assert time_change(ProcessParams(1.0, 1.0), 1.0) == pytest.approx(ref.TAU_G1_T1, rel=1e-14)
    got = time_change(ProcessParams(-0.5, 1.0), 2.0)
    assert got == pytest.approx(ref.TAU_GM05_T2, rel=1e-14)
    assert got > 0  # positive despite the negative rate


def test_time_change_input_validation():
    p = ProcessParams(1.0, 1.0)
    with pytest.raises(ValueError):
        time_change(p, -0.1)
    with pytest.raises(ValueError):
        time_change(p, math.nan)
    with pytest.raises(ValueError):
        time_change(p, math.inf)
    with pytest.raises(OverflowError):
        time_change(p, 400.0)  # exp(800) has no double representation


def test_time_change_series_matches_direct_at_threshold():
    # straddle the series/direct switchover and compare both branches against
    # an independent evaluation
    for gamma in (0.7, -0.7):
        for u in (0.99e-4, 1.01e-4):
            t = u / (2.0 * abs(gamma))
            got = time_change(ProcessParams(gamma, 1.0), t)
            direct = math.expm1(2.0 * gamma * t) / (2.0 * gamma)
            assert got == pytest.approx(direct, rel=1e-12)


def test_time_change_continuous_at_gamma_zero():
    for gamma in (1e-6, -1e-6, 1e-10, -1e-10):
        t = 2.5
        got = time_change(ProcessParams(gamma, 1.0), t)
        assert got == pytest.approx(t, rel=3e-6)
    assert time_change(ProcessParams(0.0, 1.0), 2.5) == 2.5


def test_time_change_strictly_increasing():
    # for gamma < 0 the clock saturates at 1/(2|gamma|); keep |2 gamma| t <= 30
    # so successive increments stay above double resolution
    for gamma in GAMMAS:
        t_max = 10.0 if gamma >= 0 else min(10.0, 30.0 / (2.0 * abs(gamma)))
        ts = np.linspace(0.0, t_max, 41)
        p = ProcessParams(gamma, 1.0)
        taus = [time_change(p, t) for t in ts]
        assert taus[0] == 0.0
        assert all(b > a for a, b in zip(taus, taus[1:]))


def test_variance_equals_discounted_clock():
    # the transition variance must agree with e^{-2 gamma t} tau(t), which is
    # computed through a different branch
    for gamma in GAMMAS:
        p = ProcessParams(gamma, 1.0)
        for t in np.linspace(0.01, 10.0, 23):
            law = ou_transition(p, t)
            other = math.exp(-2.0 * gamma * t) * time_change(p, t)
            assert law.variance == pytest.approx(other, rel=1e-14)


def test_ou_transition_examples():
    law = ou_transition(ProcessParams(1.0, 1.0), 1.0)
    assert law.mean == pytest.approx(ref.OU_MEAN_G1_A1_T1, rel=1e-14)
    assert law.variance == pytest.approx(ref.OU_VAR_G1_A1_T1, rel=1e-14)

    for gamma in GAMMAS:
        law0 = ou_transition(ProcessParams(gamma, 1.75), 0.0)
        assert law0.mean == 1.75
        assert law0.variance == 0.0

    bm = ou_transition(ProcessParams(0.0, 2.0), 3.0)
    assert bm.mean == 2.0
    assert bm.variance == pytest.approx(3.0, rel=1e-14)


def test_gaussian_law_rejects_negative_variance():
    with pytest.raises(ValueError):
        GaussianLaw(mean=0.0, variance=-1e-9)


def test_sample_ou_exact_moments():
    p = ProcessParams(1.0, 1.0)
    n = 1_000_000
    x = sample_ou_exact(p, 1.0, stream(101, 0), size=n)
    law = ou_transition(p, 1.0)
    se_mean = math.sqrt(law.variance / n)
    assert abs(x.mean() - law.mean) <= 4.0 * se_mean
    se_var = law.variance * math.sqrt(2.0 / (n - 1))
    assert abs(x.var(ddof=1) - law.variance) <= 4.0 * se_var


def test_sample_ou_exact_degenerate_at_zero_time():
    p = ProcessParams(-0.5, 2.0)
    x = sample_ou_exact(p, 0.0, stream(102, 0), size=1000)
    assert np.all(x == 2.0)
    assert isinstance(sample_ou_exact(p, 0.5, stream(102, 1)), float)


def test_exponentially_rescaled_mean_is_constant():
    # E[X_t e^{gamma t}] stays at the starting point for every sign of gamma
    n = 200_000
    for gamma in (-0.5, 0.0, 1.0):
        p = ProcessParams(gamma, 1.0)
        for k, t in enumerate((0.5, 1.0, 2.0)):
            x = sample_ou_exact(p, t, stream(103, k, abs(hash(gamma)) % 2**32), size=n)
            m = martingale_value(p, x, t)
            assert abs(m.mean() - p.a) <= 4.0 * m.std(ddof=1) / math.sqrt(n)


def test_martingale_value_examples():
    p = ProcessParams(1.0, 1.0)
    assert martingale_value(p, 1.0, 0.0) == 1.0
    assert martingale_value(p, 0.5, 1.0) == pytest.approx(ref.MARTINGALE_HALF_E, rel=1e-14)


def test_radial_transition_examples():
    p = ProcessParams(1.0, 1.0)
    law = radial_transition(p, 1.0)
    assert law.center == pytest.approx(ref.OU_MEAN_G1_A1_T1, rel=1e-14)
    assert law.sigma2 == pytest.approx(ref.OU_VAR_G1_A1_T1, rel=1e-14)
    assert law.mean_square() == pytest.approx(ref.RADIAL_MSQ_G1_A1_T1, rel=1e-14)

    law0 = radial_transition(p, 0.0)
    assert law0.center == 1.0 and law0.sigma2 == 0.0


def test_sample_radial_exact_positive_and_moments():
    p = ProcessParams(1.0, 1.0)
    n = 200_000
    r = sample_radial_exact(p, 1.0, stream(104, 0), size=n)
    assert np.all(r > 0.0)
    law = radial_transition(p, 1.0)
    sq = r * r
    assert abs(sq.mean() - law.mean_square()) <= 4.0 * sq.std(ddof=1) / math.sqrt(n)
    assert isinstance(sample_radial_exact(p, 1.0, stream(104, 1)), float)


def test_sample_radial_exact_matches_noncentral_chisquare_law():
    # R^2 / sigma2 is noncentral chi-square with 3 dof; scipy's sampler is an
    # independent implementation of the same law
    p = ProcessParams(1.0, 1.0)
    n = 100_000
    r = sample_radial_exact(p, 1.0, stream(105, 0), size=n)
    law = radial_transition(p, 1.0)
    lam = law.center**2 / law.sigma2
    rv = stats.ncx2.rvs(3, lam, size=n, random_state=np.random.default_rng(55))
    other = np.sqrt(law.sigma2 * rv)
    d = stats.ks_2samp(r, other).statistic
    assert d < 1.63 * math.sqrt(2.0 / n)


def test_sample_radial_exact_follows_closed_form_cdf():
    # one-sample KS against the noncentral chi-square CDF ties the sampler to
    # the same law the density module tabulates
    from scipy import stats

    p = ProcessParams(-0.5, 1.0)
    n = 100_000
    r = np.sort(sample_radial_exact(p, 0.7, stream(106, 0), size=n))
    law = radial_transition(p, 0.7)
    cdf = stats.ncx2.cdf(r * r / law.sigma2, 3, law.center**2 / law.sigma2)
    ecdf = np.arange(1, n + 1) / n
    assert np.max(np.abs(ecdf - cdf)) <= 1.628 / math.sqrt(n)


@pytest.mark.parametrize("center", ["scalar", "per-draw"])
def test_two_variate_radial_draw_matches_the_three_normal_norm(center):
    # the same law read off the stream differently: a large-n two-sample KS
    # against the norm of three normals, at one center (the exact marginal)
    # and at one center per draw (the exact step), the same for both sides
    n, sd = 400_000, 0.8
    c = 1.3 if center == "scalar" else 2.0 * np.abs(stream(107, 2).standard_normal(n))
    r = _gaussian_norm(c, sd, stream(107, 0), n)
    other = gaussian_norm_3d(c, sd, stream(107, 1), n)
    assert ks_statistic(r, other) <= ks_two_sample_critical(n, n, alpha=0.001)


def test_exact_radial_draw_reads_one_normal_then_one_exponential_per_value():
    # the stream layout behind every pinned radial-exact value: n normals,
    # then n standard exponentials, and nothing else
    n = 1_000
    rng = stream(108, 0)
    sample_radial_exact(ProcessParams(1.0, 1.0), 1.0, rng, size=n)
    expected = stream(108, 0)
    expected.standard_normal(n)
    expected.standard_exponential(n)
    assert rng.bit_generator.state == expected.bit_generator.state


def test_overflow_raises_instead_of_returning_inf():
    with pytest.raises(OverflowError):
        ou_transition(ProcessParams(-1.0, 1.0), 400.0)  # variance blows past doubles
    with pytest.raises(OverflowError):
        time_change(ProcessParams(2.0, 1.0), 200.0)
