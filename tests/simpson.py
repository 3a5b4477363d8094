"""Composite Simpson quadrature on sampled functions, for the tests that
check the closed-form window integrals against a plain numerical route."""

import numpy as np

from ringspin.oracle import _simpson_step


def simpson_integral(samples, t_max: float):
    """Composite Simpson rule for uniform samples of f over [0, t_max] along
    the last axis, weights h/3 (1, 4, 2, 4, ..., 2, 4, 1): one integral per
    leading index, a float for 1-D samples.

    Requires an odd number of samples (even interval count).
    """
    y = np.asarray(samples, dtype=float)
    count = y.shape[-1] if y.ndim else 0
    h = _simpson_step(count, t_max)
    weights = np.full(count, 2.0)
    weights[1::2] = 4.0
    weights[[0, -1]] = 1.0
    return y @ (weights * (h / 3.0))
