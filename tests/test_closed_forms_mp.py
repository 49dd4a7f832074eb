"""The closed forms of ouht against mpmath at 50 digits, on a fixed grid.

Each reference is the textbook formula in 50-digit arithmetic, without the
rearrangements the library makes for double precision (the series clock for
small |gamma t|, the expm1 form of the killed bracket, the Maxwell series
of the radial density).  The bounds are in units of double's eps: 16 for
the clock, the survival probability and the mean and variance of X_t, and
64 kappa for the two densities, where kappa = max(1, |z| x / sd) is about
the condition number of a Gaussian density at x = center + z sd.

The references take differences of two Gaussian densities as they stand.
On this grid those differences cancel at most 17 of the 50 digits (at the
x nearest 0, where x = center - sd); a radial center near 1e-48 would
cancel nearly all of them, and the references would then need the expm1
form.
"""

import numpy as np
import pytest
from mpmath import mp, mpf

from ouht.density import killed_ou_density, radial_density, survival_probability
from ouht.process import ProcessParams, ou_transition, time_change

GAMMAS = (-2.0, -0.3, 0.0, 1e-3, 1.0, 5.0)
STARTS = (1e-3, 0.1, 1.0, 30.0)
TIMES = (1e-6, 0.01, 0.5, 2.0)
ZS = (-3.0, -1.0, 0.0, 1.0, 3.0)
EPS = np.finfo(float).eps


def _clock(g, t):
    """(e^{2 g t} - 1) / (2 g), and t at g = 0, in mpmath."""
    g, t = mpf(g), mpf(t)
    return t if g == 0 else (mp.exp(2 * g * t) - 1) / (2 * g)


def _phi(y, v):
    """Centered normal density of variance v, in mpmath."""
    return mp.exp(-y * y / (2 * v)) / mp.sqrt(2 * mp.pi * v)


def _ulps(value, exact):
    """|value - exact| / |exact| in units of eps."""
    return float(abs(mpf(value) - exact) / abs(exact)) / EPS


@pytest.mark.parametrize("gamma", GAMMAS)
def test_clock_and_survival_match_mpmath(gamma):
    worst = {}
    with mp.workdps(50):
        for a in STARTS:
            for t in TIMES:
                params = ProcessParams(gamma, a)
                tau = _clock(gamma, t)
                law = ou_transition(params, t)
                # the variance of X_t is the clock with gamma negated
                cases = {"time_change": (time_change(params, t), tau),
                         "survival_probability": (survival_probability(params, t),
                                                  mp.erf(mpf(a) / mp.sqrt(2 * tau))),
                         "ou_transition mean": (law.mean, a * mp.exp(-mpf(gamma) * t)),
                         "ou_transition variance": (law.variance, _clock(-gamma, t))}
                for name, (value, exact) in cases.items():
                    worst[name] = max(worst.get(name, (0.0,)), (_ulps(value, exact), a, t))
    for name, (ulps, a, t) in worst.items():
        assert ulps <= 16.0, f"{name} off by {ulps:.3g} eps at gamma={gamma}, a={a}, t={t}"


@pytest.mark.parametrize("gamma", GAMMAS)
def test_densities_match_mpmath(gamma):
    worst = {}
    with mp.workdps(50):
        for a in STARTS:
            for t in TIMES:
                params = ProcessParams(gamma, a)
                tau = _clock(gamma, t)
                growth = mp.exp(mpf(gamma) * t)
                center, var = a / growth, _clock(-gamma, t)
                sd = mp.sqrt(var)
                for z in ZS:
                    x = float(center + z * sd)
                    if x <= 0.0:
                        continue
                    kappa = max(1.0, abs(z) * x / float(sd))
                    y = x * growth
                    cases = {
                        "killed_ou_density": (killed_ou_density(params, t, x),
                                              growth * (_phi(y - a, tau) - _phi(y + a, tau))),
                        "radial_density": (radial_density(params, t, x),
                                           x / center * (_phi(x - center, var)
                                                         - _phi(x + center, var))),
                    }
                    for name, (value, exact) in cases.items():
                        worst[name] = max(worst.get(name, (0.0,)),
                                          (_ulps(value, exact) / kappa, a, t, x))
    for name, (ulps, a, t, x) in worst.items():
        assert ulps <= 64.0, (f"{name} off by {ulps:.3g} kappa eps at gamma={gamma}, a={a}, "
                              f"t={t}, x={x!r}")
