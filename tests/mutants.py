"""Gross wrong laws, each swapped in at the one function that every row
drawing that law reads, so that a test can check that verify sees it.

Each entry of MUTANTS is (module, attribute, replacement).  The modules
look these functions up in their globals at call time, so a replacement set
there with monkeypatch reaches every sampler and integrand that uses it:

* the radial draw as the norm of a 2-d or a 4-d Gaussian, in place of 3-d,
  or of a 3-d Gaussian whose variance is 1.05 times the law's
  (``ouht.process._gaussian_norm``: the exact marginal and the exact step);
* the killed kernel driven on the clock t in place of tau(t)
  (``ouht.simulate.time_change``: every killed draw);
* the killed kernel replaced by Euler-Maruyama with sign-check killing at
  dt = 0.01, or by the bridge with its crossing exponent halved
  (``ouht.measure.simulate_killed_ou_exact``: every killed draw);
* the inverse weight (a/r) without its factor e^{-gamma t}
  (``ouht.measure.inverse_weight``: every weighted radial integrand).
"""

import math

import numpy as np

import ouht.measure
import ouht.process
import ouht.simulate
from ouht.simulate import SchemeConfig


def _gaussian_norm_in(dim):
    """|(center, 0, ...) + sd Z| for a dim-dimensional standard normal Z,
    drawn as center + sd Z_1 and sd^2 times a chi^2 with dim - 1 degrees."""

    def norm(center, sd, rng, size, out=None):
        r = rng.standard_normal(int(size), out=out)
        r *= sd
        r += center
        r *= r
        r += sd * sd * rng.chisquare(dim - 1, r.size)
        return np.sqrt(r, out=r)

    return norm


def _gaussian_norm_with_variance(factor):
    """The 3-d norm with sd^2 scaled by factor."""
    exact = ouht.process._gaussian_norm

    def norm(center, sd, rng, size, out=None):
        return exact(center, sd * math.sqrt(factor), rng, size, out)

    return norm


def clock_t(params, t):
    """The identity clock: Brownian time t in place of tau(t)."""
    return float(t)


def sign_check_euler(params, grid, rng, n_paths, out):
    """Euler-Maruyama at dt = 0.01, killed only where a substep lands <= 0."""
    ouht.simulate.euler_ou(params, grid, SchemeConfig(dt=0.01), rng, n_paths, out)


def bridge_half_exponent(params, grid, rng, n_paths, out):
    """The bridge killed with probability exp(-y y' / dtau), the square
    root of the crossing probability exp(-2 y y' / dtau)."""
    y = np.full(n_paths, float(params.a))
    taus = [ouht.process.time_change(params, t) for t in grid.times]
    for i, row in enumerate(out):
        dtau = taus[i + 1] - taus[i]
        y_next = y + math.sqrt(dtau) * rng.standard_normal(n_paths)
        cross = np.exp(np.minimum(-y * y_next / dtau, 0.0))
        y = np.where(rng.random(n_paths) < cross, 0.0, y_next)
        row[...] = math.exp(-params.gamma * grid.times[i + 1]) * y


def weight_without_discount(params, r_value, t):
    """(a / r), the inverse weight without e^{-gamma t}."""
    return params.a / np.asarray(r_value, dtype=float)


MUTANTS = {
    "radial-2d": (ouht.process, "_gaussian_norm", _gaussian_norm_in(2)),
    "radial-4d": (ouht.process, "_gaussian_norm", _gaussian_norm_in(4)),
    "radial-variance-1.05": (ouht.process, "_gaussian_norm", _gaussian_norm_with_variance(1.05)),
    "killed-clock-t": (ouht.simulate, "time_change", clock_t),
    "killed-sign-check-euler": (ouht.measure, "simulate_killed_ou_exact", sign_check_euler),
    "killed-bridge-half-exponent": (ouht.measure, "simulate_killed_ou_exact",
                                    bridge_half_exponent),
    "weight-without-discount": (ouht.measure, "inverse_weight", weight_without_discount),
}


def apply(monkeypatch, name):
    """Swap the mutant called name in for the rest of the test."""
    module, attribute, replacement = MUTANTS[name]
    monkeypatch.setattr(module, attribute, replacement)
