"""Closed-form oracles: survival probability, killed-OU and radial-OU
transition densities, and the pointwise identity tying them together.

Two independent derivations are kept deliberately separate:

* the killed-OU density comes from the Brownian picture on the tau clock
  (reflection at 0, then the change of variables y = x e^{gamma t});
* the radial density comes from the norm of the 3-d Gaussian marginal
  (center a e^{-gamma t}, per-coordinate variance sigma2).

Their pointwise consistency, p0(x) = (a/x) e^{-gamma t} q(x), is a
verification gate, not an implementation shortcut.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .process import TAIL_SIGMAS, ProcessParams, check_times, radial_transition, time_change

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


def _check_x(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(x)) or np.any(x < 0):
        raise ValueError("x must be finite and >= 0")
    return x


def survival_probability(params: ProcessParams, t: float) -> float:
    """S(t) = P(T_0 > t) = 2 Phi(a / sqrt(tau(t))) - 1, by reflection of the
    driving Brownian motion on the tau clock."""
    t, = check_times((t,))
    tau = time_change(params, t)
    return math.erf(params.a / math.sqrt(2.0 * tau))


def killed_ou_density(params: ProcessParams, t: float, x):
    """Sub-probability density of X_t on survival; integrates to S(t).

    p0(x) = e^{gamma t} [phi_tau(x e^{gamma t} - a) - phi_tau(x e^{gamma t} + a)].
    x = 0 is allowed and returns the limit 0.

    With y = x e^{gamma t} the bracket is evaluated as
    phi_tau(y - a) (1 - e^{-2 y a / tau}): exact algebra, no cancellation
    near y = 0 and no overflow in the tails.  The factor
    e^{gamma t} / sqrt(2 pi tau), which is 1/sqrt(2 pi v) for the OU variance
    v = tau e^{-2 gamma t}, is applied as one number: formed apart, the
    bracket can be subnormal (about 1e-319 at gamma t = 345) before
    e^{gamma t} scales it back up, and lose most of its digits.
    """
    t, = check_times((t,))
    x = _check_x(x)
    tau = time_change(params, t)
    growth = math.exp(params.gamma * t)
    y = x * growth
    scale = growth / math.sqrt(2.0 * math.pi * tau)
    a = params.a
    with np.errstate(over="ignore"):  # a square past the float range: exp(-inf) = 0
        bell = np.exp(-((y - a) ** 2) / (2.0 * tau))
    out = scale * bell * -np.expm1(-2.0 * y * a / tau)
    return float(out) if out.ndim == 0 else out


def radial_density(params: ProcessParams, t: float, x):
    """Probability density of R_t: radial part of the 3-d Gaussian marginal,
    q(x) = (x / c) [phi_s(x - c) - phi_s(x + c)] with c = a e^{-gamma t} and
    s the per-coordinate variance.  Integrates to 1; q(0) = 0."""
    t, = check_times((t,))
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(_check_x(x))
    law = radial_transition(params, t)
    c, s = law.center, law.sigma2
    w = 2.0 * x * c / s
    base = gaussian_pdf(x - c, s)
    # (x/c)(1 - e^{-w}) -> 2 x^2/s as w -> 0; the series branch keeps the
    # Maxwell limit finite when c underflows (large gamma t) or x -> 0
    small = w < 1e-8
    out = np.empty_like(w)
    out[small] = (2.0 * x[small] ** 2 / s) * (1.0 - 0.5 * w[small]) * base[small]
    rest = ~small  # empty when c = 0, since then w = 0 everywhere
    out[rest] = (x[rest] / c) * -np.expm1(-w[rest]) * base[rest]
    return float(out[0]) if scalar else out


def _identity_sides(params: ProcessParams, t: float, x):
    """(p0(x), (a/x) e^{-gamma t} q(x), q(x)): the identity's two sides, and q."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be > 0 for the residual")
    q = radial_density(params, t, x)
    return killed_ou_density(params, t, x), (params.a / x) * math.exp(-params.gamma * t) * q, q


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


def _killed_support(params: ProcessParams, t: float) -> tuple[float, float]:
    """(lo, hi) with the killed density negligible outside: a -/+ 12 sqrt(tau)
    on the Brownian clock, mapped back by e^{-gamma t}."""
    spread = TAIL_SIGMAS * math.sqrt(time_change(params, t))
    scale = math.exp(-params.gamma * t)
    return max(0.0, (params.a - spread) * scale), (params.a + spread) * scale


def _radial_support(params: ProcessParams, t: float) -> tuple[float, float]:
    law = radial_transition(params, t)
    spread = TAIL_SIGMAS * math.sqrt(law.sigma2)
    return max(0.0, law.center - spread), law.center + spread


def _quad(fn, lo: float, hi: float, points=()) -> float:
    """Composite Gauss-Legendre quadrature of the vectorised fn over [lo, hi],
    with the panels also split at points so that fn is smooth on each.  The
    lower edge matters for a narrow peak far from 0, which a rule on [0, hi]
    would miss."""
    # the sorted distinct edges, as np.union1d gives them; its np.unique
    # would import numpy.ma
    edges = np.sort(np.concatenate((np.linspace(lo, hi, _PANELS + 1), points)))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    half = 0.5 * np.diff(edges)
    x = (edges[:-1] + half)[:, None] + half[:, None] * _NODES
    return float(np.sum(half * (fn(x) @ _WEIGHTS)))


def killed_density_mass(params: ProcessParams, t: float) -> float:
    """Quadrature of the killed density over (0, inf); should equal S(t)."""
    return _quad(lambda x: killed_ou_density(params, t, x), *_killed_support(params, t))


def radial_density_mass(params: ProcessParams, t: float) -> float:
    """Quadrature of the radial density over (0, inf); should equal 1."""
    return _quad(lambda x: radial_density(params, t, x), *_radial_support(params, t))


def killed_expectation_quadrature(
    params: ProcessParams,
    t: float,
    fn: Callable[[np.ndarray], np.ndarray],
    breakpoints: Iterable[float] = (),
) -> float:
    """Quadrature of fn against the killed density: the analytic side of the
    killed-semigroup check.  fn is called once, on an array of nodes, and
    must return an array of the same shape.  Pass fn's discontinuity points
    as breakpoints."""
    lo, hi = _killed_support(params, t)
    pts = [p for p in breakpoints if lo < p < hi]
    return _quad(lambda x: fn(x) * killed_ou_density(params, t, x), lo, hi, pts)
