"""Transition laws and exact samplers for the scalar OU process

    dX_t = dB_t - gamma * X_t dt,   X_0 = a > 0,

and for the radial part R_t = |vec X_t| of its 3-dimensional analogue.

Everything here rests on the representation

    X_t = e^{-gamma t} * (a + beta(tau(t))),   tau(t) = (e^{2 gamma t} - 1) / (2 gamma),

for a standard Brownian motion beta, which turns OU marginals into Brownian
marginals on the deterministic clock tau.  gamma may have either sign;
gamma = 0 is the Brownian limit and is handled as a first-class value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Below this |2 gamma t| the clock is evaluated by series; the quartic term
# it drops is ~1e-18 relative, far below double precision.
SERIES_THRESHOLD = 1e-4

# exp(2 gamma t) overflows past ~709; refuse a little early.
_EXP_ARG_MAX = 700.0

# Gaussian mass beyond 12 standard deviations is ~1e-33, far below the
# 1e-8 tolerance the mass checks are held to: this sets the quadrature window,
# and a radial law is refused where the square of its far end overflows.
TAIL_SIGMAS = 12.0


@dataclass(frozen=True)
class ProcessParams:
    """Rate gamma (any sign, 1/time) and starting point a > 0."""

    gamma: float
    a: float

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be finite and > 0, got {self.a}")


@dataclass(frozen=True)
class GaussianLaw:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class RadialLaw:
    """Law of the norm of a 3-d isotropic Gaussian: mean vector (center, 0, 0),
    per-coordinate variance sigma2."""

    center: float
    sigma2: float

    def __post_init__(self):
        if self.center < 0:
            raise ValueError(f"center must be >= 0, got {self.center}")
        if self.sigma2 < 0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")

    def mean_square(self) -> float:
        """E[R^2] = center^2 + 3 * sigma2."""
        return self.center**2 + 3.0 * self.sigma2


def _require_time(t: float) -> float:
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return t


def check_times(times) -> tuple[float, ...]:
    """Observation times as a tuple of floats; a ValueError unless there is
    at least one and they are positive, finite and strictly ascending."""
    times = tuple(float(t) for t in times)
    if not times or not all(math.isfinite(t) and t > 0 for t in times) or any(
        b <= a for a, b in zip(times, times[1:])
    ):
        raise ValueError("times must be positive, finite and strictly ascending")
    return times


def _tau(gamma: float, t: float, sign: float = 1.0) -> float:
    """(e^{2 g t} - 1) / (2 g) with g = sign * gamma; an overflow names the
    caller's gamma and t, not g."""
    g = sign * gamma
    u = 2.0 * g * t
    if u > _EXP_ARG_MAX:
        raise OverflowError(
            f"exp({'' if sign > 0 else '-'}2*gamma*t) overflows for gamma = {gamma:g}, "
            f"t = {t:g} (gamma*t = {gamma * t:g}); "
            "the requested horizon is outside the usable range"
        )
    if abs(u) < SERIES_THRESHOLD:
        v = g * t
        return t * (1.0 + v * (1.0 + v * (2.0 / 3.0 + v / 3.0)))
    return math.expm1(u) / (2.0 * g)


def time_change(params: ProcessParams, t: float) -> float:
    """Brownian clock tau(t) = (e^{2 gamma t} - 1) / (2 gamma).

    Strictly increasing in t with tau(0) = 0 and tau(t) > 0 for t > 0,
    whatever the sign of gamma.
    """
    return _tau(params.gamma, _require_time(t))


def ou_transition(params: ProcessParams, t: float) -> GaussianLaw:
    """Marginal law of X_t: N(a e^{-gamma t}, e^{-2 gamma t} tau(t))."""
    t = _require_time(t)
    # (1 - e^{-2 gamma t}) / (2 gamma) is tau with gamma negated; this route
    # stays finite for large gamma*t > 0 where tau itself would overflow.
    variance = _tau(params.gamma, t, sign=-1.0)
    return GaussianLaw(mean=params.a * math.exp(-params.gamma * t), variance=variance)


def radial_transition(params: ProcessParams, t: float) -> RadialLaw:
    """Marginal law of R_t = |vec X_t| for the 3-d process started at (a, 0, 0).

    Each coordinate is an independent scalar OU, so R_t is the norm of an
    isotropic Gaussian with center a e^{-gamma t} and per-coordinate variance
    equal to the scalar transition variance.  The samplers square values up
    to center + TAIL_SIGMAS sd, so an OverflowError names gamma, a and t
    where that square overflows.
    """
    law = ou_transition(params, t)
    tail = law.mean + TAIL_SIGMAS * math.sqrt(law.variance)
    if not math.isfinite(tail * tail):
        raise OverflowError(
            f"the radial law's squared {TAIL_SIGMAS:g}-sigma tail overflows for gamma = "
            f"{params.gamma:g}, a = {params.a:g}, t = {t:g}; "
            "the requested start and horizon are outside the usable range"
        )
    return RadialLaw(center=law.mean, sigma2=law.variance)


def check_horizon(params: ProcessParams, times) -> None:
    """time_change and radial_transition at every time: an OverflowError
    names gamma and t where the clock tau(t) or e^{-2 gamma t} overflows,
    and gamma, a and t where the radial law's squared tail does."""
    for t in times:
        time_change(params, t)
        radial_transition(params, t)


def sample_ou_exact(
    params: ProcessParams,
    t: float,
    rng: np.random.Generator,
    size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """size draws from the exact (unkilled) marginal of X_t; values may be
    <= 0.  Written into out when it is given."""
    law = ou_transition(params, t)
    x = rng.standard_normal(int(size), out=out)
    x *= math.sqrt(law.variance)
    x += law.mean
    return x


def _gaussian_norm(center, sd: float, rng: np.random.Generator, size: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """|(center, 0, 0) + sd Z| for size independent 3-d standard normals Z;
    center may be a scalar or one value per draw.  Written into out when it
    is given.

    Two variates per draw, not three: Z_2^2 + Z_3^2 is chi^2_2 = 2 Exp(1), so
    the norm is sqrt((center + sd Z_1)^2 + 2 sd^2 E), drawn as size normals
    Z_1 and then size standard exponentials E.
    """
    r = rng.standard_normal(int(size), out=out)
    r *= sd
    r += center
    r *= r
    e = rng.standard_exponential(r.size)
    e *= 2.0 * sd * sd
    r += e
    return np.sqrt(r, out=r)


def sample_radial_exact(
    params: ProcessParams,
    t: float,
    rng: np.random.Generator,
    size: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """size exact draws of R_t, the norm of a 3-d Gaussian draw; strictly
    positive a.s.  Written into out when it is given."""
    law = radial_transition(params, t)
    sd = math.sqrt(law.sigma2)
    return _gaussian_norm(law.center, sd, rng, size, out)


def sample_radial_step(
    params: ProcessParams,
    r: np.ndarray,
    dt: float,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw R_{s+dt} given R_s = r, exactly, for each value in r (into out
    when it is given).

    The 3-d vector moves to e^{-gamma dt} vec + sqrt(v(dt)) Z, with v(dt) the
    scalar transition variance.  Z is isotropic, so the law of the new norm
    depends on |vec| = r alone, and vec is taken along the first axis.
    """
    law = ou_transition(ProcessParams(params.gamma, 1.0), dt)  # from 1: mean e^{-gamma dt}
    return _gaussian_norm(law.mean * r, math.sqrt(law.variance), rng, r.size, out)


def martingale_value(params: ProcessParams, x, t: float):
    """x * e^{gamma t}; applied to X_t it has constant expectation a."""
    return x * math.exp(params.gamma * float(t))
