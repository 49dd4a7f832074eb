"""Gross wrong laws, each swapped in at the one function that every row
drawing that law reads, so that a test can check that verify sees it.

Each entry of MUTANTS is (module, attribute, replacement).  The modules
look these functions up in their globals at call time, so a replacement set
there with monkeypatch reaches every sampler and integrand that uses it:

* the radial draw as the norm of a 2-d or a 4-d Gaussian, in place of 3-d
  (``ouht.process._gaussian_norm``: the exact marginal and the exact step);
* the killed kernel driven on the clock t in place of tau(t)
  (``ouht.simulate.time_change``: every killed draw, ``survival_flags``
  included);
* the inverse weight (a/r) without its factor e^{-gamma t}
  (``ouht.measure.inverse_weight``: every weighted radial integrand).
"""

import numpy as np

import ouht.measure
import ouht.process
import ouht.simulate


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


def clock_t(params, t):
    """The identity clock: Brownian time t in place of tau(t)."""
    return float(t)


def weight_without_discount(params, r_value, t):
    """(a / r), the inverse weight without e^{-gamma t}."""
    return params.a / np.asarray(r_value, dtype=float)


MUTANTS = {
    "radial-2d": (ouht.process, "_gaussian_norm", _gaussian_norm_in(2)),
    "radial-4d": (ouht.process, "_gaussian_norm", _gaussian_norm_in(4)),
    "killed-clock-t": (ouht.simulate, "time_change", clock_t),
    "weight-without-discount": (ouht.measure, "inverse_weight", weight_without_discount),
}


def apply(monkeypatch, name):
    """Swap the mutant called name in for the rest of the test."""
    module, attribute, replacement = MUTANTS[name]
    monkeypatch.setattr(module, attribute, replacement)
