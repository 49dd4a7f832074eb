"""Test-only reference forms of the exact samplers, kept as they were written
before their in-place rewrites: the allocating Brownian-bridge killed-OU
scheme (one new array per operation, stored column by column into an
(n_paths, n_times) array whose time-0 column the returned Paths leave out)
and the radial draw as the norm of three normals.

The bridge must agree byte for byte with simulate.simulate_killed_ou_exact,
which draws the same variates in the same order; the 3-normal norm has the
same law as process._gaussian_norm but reads the stream differently, so the
two are compared in distribution only.  fill hands a kernel a new out.
"""

import math

import numpy as np

from ouht.process import time_change
from ouht.simulate import Paths


def killed_ou_bridge(params, grid, rng, n_paths):
    times = grid.times
    taus = np.array([time_change(params, t) for t in times])
    values = np.empty((n_paths, times.size))
    values[:, 0] = params.a
    y = np.full(n_paths, params.a)
    for i in range(times.size - 1):
        dtau = taus[i + 1] - taus[i]
        z = rng.standard_normal(n_paths)
        u = rng.random(n_paths)
        y_next = y + math.sqrt(dtau) * z
        log_p_cross = np.minimum(-2.0 * y * y_next / dtau, 0.0)
        y = np.where(u < np.exp(log_p_cross), 0.0, y_next)
        values[:, i + 1] = math.exp(-params.gamma * times[i + 1]) * y
    return Paths(grid, values[:, 1:])  # Paths leave the shared start out


def fill(kernel, params, grid, *args):
    """kernel's Paths on grid, drawn into a new out; args end with n_paths."""
    return kernel(params, grid, *args, np.empty((grid.n_intervals, args[-1])))


def gaussian_norm_3d(center, sd, rng, size):
    vec = sd * rng.standard_normal((int(size), 3))
    vec[:, 0] += center
    return np.sqrt(np.einsum("ij,ij->i", vec, vec))
