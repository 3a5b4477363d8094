"""Damped least-squares fit of the averaged truncation-error curve.

The mean error as a function of the truncation radius x is well described by

    J(x) = a + exp(-c x) / (x**d - b)

over 2 <= x <= max_neighbors - 1.  Parameters are found by classic
Levenberg-Marquardt (diagonally scaled damping, simple accept/reject) with an
analytic Jacobian.  Candidate steps that would move the pole x**d = b into
the fit interval are rejected outright, so the returned model is finite on
the whole interval.

Fits are deterministic: points are sorted internally, the starting point is
fixed by the data (a0 = min J, b0 = 0, d0 = 2, c0 from a log-linear slope of
J - a0), and no randomized restarts are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitParams",
    "decay_model",
    "fit_decay",
    "fit_trends",
]

MAX_ITERATIONS = 200
STEP_TOL = 1e-10


def decay_model(x, a: float, b: float, c: float, d: float):
    """a + exp(-c x) / (x**d - b), elementwise in x."""
    x = np.asarray(x, dtype=float)
    return a + np.exp(-c * x) / (x**d - b)


def _jacobian(x, a, b, c, d):
    xd = x**d
    den = xd - b
    decay = np.exp(-c * x)
    J = np.empty((x.size, 4))
    J[:, 0] = 1.0
    J[:, 1] = decay / den**2
    J[:, 2] = -x * decay / den
    J[:, 3] = -decay * xd * np.log(x) / den**2
    return J


def _pole_inside(b: float, d: float, x_lo: float, x_hi: float) -> bool:
    """True when x**d = b has a root in [x_lo, x_hi] (x > 0, monotone in x)."""
    lo, hi = sorted((x_lo**d, x_hi**d))
    return lo <= b <= hi


def _initial_guess(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    a0 = float(y.min())
    shifted = y - a0
    mask = shifted > 0
    if mask.sum() >= 2:
        slope = np.polyfit(x[mask], np.log(shifted[mask]), 1)[0]
        c0 = max(-float(slope), 1e-3)
    else:
        c0 = 0.3
    return np.array([a0, 0.0, c0, 2.0])


@dataclass(frozen=True)
class FitParams:
    """Fitted decay-curve parameters plus convergence diagnostics.

    `condition_number` is cond(J^T J) at the solution; large values flag the
    weak (b, d) identifiability of short, nearly flat curves.
    """

    a: float
    b: float
    c: float
    d: float
    rms: float
    converged: bool
    iterations: int
    condition_number: float


def fit_decay(points) -> FitParams:
    """Fit the decay curve to (radius, mean error) points.

    Needs at least 5 points with radii >= 2 and nonnegative errors.  Stops
    when the relative damped step drops below 1e-10; if MAX_ITERATIONS are
    exhausted first the best parameters so far are returned with
    `converged=False`.
    """
    pts = np.asarray(sorted((float(m), float(j)) for m, j in points))
    if pts.shape[0] < 5:
        raise ValueError(f"need at least 5 points, got {pts.shape[0]}")
    x, y = pts[:, 0], pts[:, 1]
    if np.any(x < 2.0):
        raise ValueError("fit interval starts at radius 2")
    if np.unique(x).size != x.size:
        raise ValueError("duplicate radii in fit data")
    if np.any(y < 0.0):
        raise ValueError("error values must be nonnegative")
    x_lo, x_hi = x[0], x[-1]

    p = _initial_guess(x, y)
    r = decay_model(x, *p) - y
    cost = float(r @ r)
    damping = 1e-3
    converged = False
    n_iter = 0
    A = np.zeros((4, 4))
    for n_iter in range(1, MAX_ITERATIONS + 1):
        J = _jacobian(x, *p)
        g = J.T @ r
        A = J.T @ J
        scale = np.diag(np.maximum(np.diag(A), 1e-14))
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(A + damping * scale, -g)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            rel = float(np.max(np.abs(step) / np.maximum(np.abs(p), 1e-12)))
            if rel < STEP_TOL:
                converged = True
                break
            candidate = p + step
            if _pole_inside(candidate[1], candidate[3], x_lo, x_hi):
                damping *= 10.0
                continue
            # a step that overflows the model gives a cost of inf or nan,
            # which fails the comparison below: a failed step
            with np.errstate(over="ignore", invalid="ignore"):
                r_new = decay_model(x, *candidate) - y
                cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                p, r, cost = candidate, r_new, cost_new
                damping = max(damping / 3.0, 1e-14)
                accepted = True
                break
            damping *= 10.0
        if converged or not accepted:
            # a fully damped step below tolerance means we are stationary
            converged = True
            break

    cond = float(np.linalg.cond(A)) if np.all(np.isfinite(A)) else np.inf
    return FitParams(
        a=float(p[0]),
        b=float(p[1]),
        c=float(p[2]),
        d=float(p[3]),
        rms=float(np.sqrt(cost / x.size)),
        converged=converged,
        iterations=n_iter,
        condition_number=cond,
    )


def fit_trends(lengths, fits) -> dict[str, float]:
    """Regression slope of each fitted parameter against the chain length,
    one per parameter name.  Needs at least 3 distinct lengths."""
    lengths = np.asarray(lengths, dtype=float)
    if lengths.size < 3 or np.unique(lengths).size != lengths.size:
        raise ValueError(f"need at least 3 distinct chain lengths, got {lengths.tolist()}")
    values = np.array([[fp.a, fp.b, fp.c, fp.d] for fp in fits])
    slopes = np.polyfit(lengths, values, 1)[0]
    # |slope| < 1e-12 is flat within regression rounding
    return {name: 0.0 if abs(v) < 1e-12 else float(v) for name, v in zip("abcd", slopes)}
