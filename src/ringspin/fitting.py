"""Scale of the averaged truncation-error curve against the state-level error.

The parity-weighted mean error of a radius M follows the exact error of the
whole state evolved from site 1, E(M) (`metrics.state_error`), up to one
factor: means ~ kappa E.  The factor is the linear least-squares scale

    kappa = sum_M m_M E_M / sum_M E_M^2,

and the fit reports it with the rms of the residuals m - kappa E.  Dipolar
rings give kappa within 0.3% of 1 at 20 <= N <= 560, T = N.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fit_scale"]


def fit_scale(means, curve) -> tuple[float, float]:
    """(kappa, rms): the least-squares kappa of means ~ kappa * curve,
    pointwise over radii, and the rms of the residuals.

    Both inputs are equally long, finite and non-negative, and the curve is
    not zero at every radius (nor empty): there kappa would be 0/0.
    """
    m, e = np.asarray(means, dtype=float), np.asarray(curve, dtype=float)
    if m.ndim != 1 or m.shape != e.shape:
        raise ValueError(f"means and curve must be equally long 1-D arrays, "
                         f"got shapes {m.shape} and {e.shape}")
    if not (np.isfinite(m).all() and np.isfinite(e).all()):
        raise ValueError("means and curve must be finite")
    if (m < 0.0).any() or (e < 0.0).any():
        raise ValueError("means and curve must be non-negative")
    power = float(e @ e)
    if power == 0.0:
        raise ValueError("the error curve is zero at every fitted radius: no scale to fit")
    kappa = float(m @ e) / power
    return kappa, float(np.sqrt(np.mean((m - kappa * e) ** 2)))
