"""Closed-form oracles: survival probability, killed-OU and radial-OU
transition densities, and the pointwise identity tying them together.

Everything here works in one standardised coordinate: X_t = sd (u + W) for a
standard normal W, with sd the OU standard deviation and u = a / sqrt(tau),
and R_t = sd |(u, 0, 0) + W_3| (Brownian scaling of the tau clock).  The
killed density comes from reflecting W at -u; the radial density from the
norm of the 3-d Gaussian.  Their pointwise consistency,
p0(x) = (a/x) e^{-gamma t} q(x), is a verification gate.  Every quadrature
runs over W on one window, [max(-u, -TAIL_SIGMAS), TAIL_SIGMAS], which never
narrows against its center, whatever the scale of a, t or gamma.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .process import TAIL_SIGMAS, ProcessParams, check_times, ou_transition, time_change

# composite Gauss-Legendre rule: 20 nodes on each of 64 equal panels.  The
# positive half of np.polynomial.legendre.leggauss(20), written out so that no
# command imports numpy.polynomial or runs its eigen-solve; mirrored, it gives
# leggauss's arrays bit for bit (its nodes are exactly odd, its weights even).
_PANELS = 64
_HALF_NODES = (
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
    0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095,
)
_HALF_WEIGHTS = (
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
    0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893,
)
_NODES = np.concatenate((-np.array(_HALF_NODES[::-1]), _HALF_NODES))
_WEIGHTS = np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))


def gaussian_pdf(y, variance: float):
    """Centered normal density with the given variance (> 0)."""
    if not (math.isfinite(variance) and variance > 0):
        raise ValueError(f"variance must be finite and > 0, got {variance}")
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):  # a square past the float range: exp(-inf) = 0
        out = np.exp(-(y * y) / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
    return float(out) if out.ndim == 0 else out


def survival_probability(params: ProcessParams, t: float) -> float:
    """S(t) = P(T_0 > t) = 2 Phi(a / sqrt(tau(t))) - 1, by reflection of the
    driving Brownian motion on the tau clock."""
    t, = check_times((t,))
    tau = time_change(params, t)
    return math.erf(params.a / math.sqrt(2.0 * tau))


def _standardised(params: ProcessParams, t: float, x=0.0):
    """(sd, u, r): X_t = sd (u + W) for a standard normal W, with sd the OU
    standard deviation, u = a / sqrt(tau) its mean over sd, and r = x / sd
    for x finite and >= 0."""
    t, = check_times((t,))
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x < 0):
        raise ValueError("x must be finite and >= 0")
    law = ou_transition(params, t)
    sd = math.sqrt(law.variance)
    with np.errstate(over="ignore"):  # r held at the largest float, where the densities are 0
        r = np.minimum(x / sd, np.finfo(float).max)
    return sd, law.mean / sd, r


def _killed(u, r, w):
    """sd p0(sd r) = phi(w) (1 - e^{-2 u r}) at w = r - u; each caller forms
    whichever of r and w it holds exactly, and the other from it."""
    with np.errstate(over="ignore"):  # 2ur past the float range: 1 - e^{-inf} = 1
        return gaussian_pdf(w, 1.0) * -np.expm1(-2.0 * u * r)


def _radial(u, r, w):
    """sd q(sd r) at w = r - u: (r/u) phi(w) (1 - e^{-2 u r}), and 0 where
    phi(w) underflows, however large r is."""
    with np.errstate(over="ignore"):  # 2ur past the float range: 1 - e^{-inf} = 1
        two_ur = 2.0 * u * r
    phi = gaussian_pdf(w, 1.0)
    # (r/u)(1 - e^{-2ur}) -> 2 r^2 as 2ur -> 0; the series branch keeps the
    # Maxwell limit finite when u underflows (large gamma t) or r -> 0
    small = (two_ur < 1e-8) & (phi > 0)
    rest = (two_ur >= 1e-8) & (phi > 0)  # empty when u = 0, since then 2ur = 0
    out = np.zeros_like(phi)
    out[small] = 2.0 * r[small] ** 2 * (1.0 - 0.5 * two_ur[small]) * phi[small]
    out[rest] = (r[rest] / u) * -np.expm1(-two_ur[rest]) * phi[rest]
    return out


def killed_ou_density(params: ProcessParams, t: float, x):
    """Sub-probability density of X_t on survival; integrates to S(t).

    p0(x) = e^{gamma t} [phi_tau(x e^{gamma t} - a) - phi_tau(x e^{gamma t} + a)],
    which is phi(r - u) (1 - e^{-2 u r}) / sd with r = x / sd: no cancellation
    near x = 0 and no overflow in the tails.  x = 0 is allowed and returns
    the limit 0.
    """
    sd, u, r = _standardised(params, t, x)
    out = _killed(u, r, r - u) / sd
    return float(out) if out.ndim == 0 else out


def radial_density(params: ProcessParams, t: float, x):
    """Probability density of R_t: radial part of the 3-d Gaussian marginal,
    q(x) = (x / c) [phi_s(x - c) - phi_s(x + c)] with c = a e^{-gamma t} and
    s the per-coordinate variance, which is (r/u) phi(r - u) (1 - e^{-2 u r})
    / sd with r = x / sd.  Integrates to 1; q(0) = 0."""
    scalar = np.ndim(x) == 0
    sd, u, r = _standardised(params, t, x)
    r = np.atleast_1d(r)
    out = _radial(u, r, r - u) / sd
    return float(out[0]) if scalar else out


def _identity_sides(params: ProcessParams, t: float, x):
    """(p0(x), (a/x) e^{-gamma t} q(x), q(x)): the identity's two sides, and q."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be > 0 for the residual")
    q = radial_density(params, t, x)
    return killed_ou_density(params, t, x), params.a * math.exp(-params.gamma * t) * (q / x), q


def density_identity_residual(params: ProcessParams, t: float, x):
    """p0(x) - (a/x) e^{-gamma t} q(x); zero up to rounding for all inputs."""
    lhs, rhs, _ = _identity_sides(params, t, x)
    out = lhs - rhs
    return float(out) if np.ndim(out) == 0 else out


def relative_identity_residual(params: ProcessParams, t: float, x):
    """|residual| scaled by the larger of the two sides; 0 where both, or q(x)
    alone, are 0 or subnormal, whose few digits say nothing about the identity."""
    lhs, rhs, q = map(np.asarray, _identity_sides(params, t, x))
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    normal = np.minimum(scale, q) >= np.finfo(float).tiny
    with np.errstate(invalid="ignore"):
        rel = np.where(normal, np.abs(lhs - rhs) / np.where(normal, scale, 1.0), 0.0)
    return float(rel) if rel.ndim == 0 else rel


def _quad(fn, lo: float, hi: float, points=()) -> float:
    """Composite Gauss-Legendre quadrature of the vectorised fn over [lo, hi],
    with the panels also split at points so that fn is smooth on each."""
    # the sorted distinct edges, as np.union1d gives them; its np.unique
    # would import numpy.ma
    edges = np.sort(np.concatenate((np.linspace(lo, hi, _PANELS + 1), points)))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    half = 0.5 * np.diff(edges)
    x = (edges[:-1] + half)[:, None] + half[:, None] * _NODES
    return float(np.sum(half * (fn(x) @ _WEIGHTS)))


def killed_density_mass(params: ProcessParams, t: float) -> float:
    """Quadrature of the killed density over (0, inf); should equal S(t)."""
    _, u, _ = _standardised(params, t)
    return _quad(lambda w: _killed(u, u + w, w), max(-u, -TAIL_SIGMAS), TAIL_SIGMAS)


def radial_density_mass(params: ProcessParams, t: float) -> float:
    """Quadrature of the radial density over (0, inf); should equal 1."""
    _, u, _ = _standardised(params, t)
    return _quad(lambda w: _radial(u, u + w, w), max(-u, -TAIL_SIGMAS), TAIL_SIGMAS)


def killed_expectation_quadrature(
    params: ProcessParams,
    t: float,
    fn: Callable[[np.ndarray], np.ndarray],
    breakpoints: Iterable[float] = (),
) -> float:
    """Quadrature of fn against the killed density: the analytic side of the
    killed-semigroup check.  fn is called once, on an array of nodes, and
    must return an array of the same shape.  Pass fn's discontinuity points
    as breakpoints; each breakpoint b is mapped to W = b / sd - u."""
    sd, u, _ = _standardised(params, t)
    lo = max(-u, -TAIL_SIGMAS)
    pts = [w for w in (b / sd - u for b in breakpoints) if lo < w < TAIL_SIGMAS]
    return _quad(lambda w: fn(sd * (u + w)) * _killed(u, u + w, w), lo, TAIL_SIGMAS, pts)
