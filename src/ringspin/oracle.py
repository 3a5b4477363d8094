"""Brute-force reference routes and the validation suite built on them.

The dense eigensolver, the matrix-exponential propagator built on it, and
composite Simpson quadrature are deliberately plain and unused by the
production path: they are an independent route to the closed-form spectrum
and the exact window integrals.  Each `check_*` compares the two routes and
returns a `Check`, the worst deviation with its tolerance.
`validation_checks` is the suite that `ringspin validate` prints; the
acceptance tests assert the same checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, build_matrix, dipolar_ratios, max_neighbors
from .metrics import TimeWindow, error_map, independent_targets, probability_map
from .spectral import (amplitude, eigenvalue_table, eigenvalues, eigenvectors, evolve,
                       pair_mode_weights)

__all__ = ["Check", "DenseEigenResult", "check_eigen", "check_perfect_transfer",
           "check_propagator", "check_quadrature", "dense_eigen", "expm_propagate",
           "simpson_integral", "validation_checks"]

MAX_EIGEN_SIZE = 256
MAX_PROPAGATE_SIZE = 64
# samples of one quadrature grid; each (targets x samples) complex array
# then stays below about 70 MB up to N = 40
MAX_QUAD_SAMPLES = 200_000
# projectors of eigenvalues closer than this are summed into one subspace
GROUP_TOL = 1e-6


@dataclass(frozen=True)
class DenseEigenResult:
    values: np.ndarray    # ascending
    vectors: np.ndarray   # orthogonal, column i pairs with values[i]


def dense_eigen(matrix) -> DenseEigenResult:
    """Full decomposition of a real symmetric matrix (LAPACK path),
    eigenvalues sorted ascending."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if A.shape[0] > MAX_EIGEN_SIZE:
        raise ValueError(f"oracle limited to {MAX_EIGEN_SIZE}x{MAX_EIGEN_SIZE}")
    scale = max(float(np.abs(A).max()), 1.0)
    if float(np.abs(A - A.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(A)
    return DenseEigenResult(values=values, vectors=vectors)


def expm_propagate(matrix, initial, tau: float) -> np.ndarray:
    """exp(-i G tau) initial via the dense decomposition of G."""
    A = np.asarray(matrix, dtype=float)
    if A.shape[0] > MAX_PROPAGATE_SIZE:
        raise ValueError(f"oracle limited to {MAX_PROPAGATE_SIZE} sites")
    v = np.asarray(initial, dtype=complex)
    if v.shape != (A.shape[0],):
        raise ValueError(f"state must have shape ({A.shape[0]},), got {v.shape}")
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if abs(norm_sq - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized: sum |a_j|^2 = {norm_sq!r}")
    eig = dense_eigen(A)
    return eig.vectors @ (np.exp(-1j * eig.values * float(tau)) * (eig.vectors.T @ v))


def simpson_integral(samples, t_max: float) -> float:
    """Composite Simpson rule for uniform samples of f over [0, t_max].

    Requires an odd number of samples (even interval count).
    """
    y = np.asarray(samples, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise ValueError("need a 1-D array of at least 3 samples")
    if y.size % 2 == 0:
        raise ValueError(f"sample count must be odd, got {y.size}")
    h = float(t_max) / (y.size - 1)
    return (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()) * h / 3.0


@dataclass(frozen=True)
class Check:
    """Worst deviation of one closed-form quantity from its oracle route."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _eigenspaces(values, vectors) -> list[np.ndarray]:
    """Projector onto each eigenspace, ascending in eigenvalue."""
    order = np.argsort(values)
    vals, vecs = np.asarray(values)[order], np.asarray(vectors)[:, order]
    blocks = np.split(vecs, np.flatnonzero(np.diff(vals) > GROUP_TOL) + 1, axis=1)
    return [b @ b.T for b in blocks]


def check_eigen() -> tuple[Check, Check]:
    """Closed-form spectrum vs the dense solver on dipolar rings N = 3..16 at
    every radius: sorted eigenvalues, and the projector onto each eigenspace
    (infinite deviation if the eigenspace counts differ)."""
    worst_val = worst_proj = 0.0
    for nodes in range(3, 17):
        profile = dipolar_ratios(nodes)
        U = eigenvectors(nodes)
        for m in range(1, max_neighbors(nodes) + 1):
            spec = ChainSpec(nodes, m)
            lam = eigenvalues(spec, profile)
            oracle = dense_eigen(build_matrix(spec, profile))
            worst_val = max(worst_val, float(np.abs(np.sort(lam) - oracle.values).max()))
            closed = _eigenspaces(lam, U)
            brute = _eigenspaces(oracle.values, oracle.vectors)
            if len(closed) != len(brute):
                worst_proj = math.inf
            for proj_c, proj_b in zip(closed, brute):
                worst_proj = max(worst_proj, float(np.abs(proj_c - proj_b).max()))
    return (
        Check("eigenvalues closed form vs dense solver", worst_val, 1e-10),
        Check("degenerate projectors closed form vs dense solver", worst_proj, 1e-8),
    )


def check_propagator() -> Check:
    """Closed-form propagation of 20 random normalized states vs the matrix
    exponential on dipolar rings of both parities, at the smallest and the
    largest radius and tau in {0.1, 1, N}."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for nodes in (4, 5, 8, 11, 12):
        profile = dipolar_ratios(nodes)
        for m in (1, max_neighbors(nodes)):
            spec = ChainSpec(nodes, m)
            G = build_matrix(spec, profile)
            for tau in (0.1, 1.0, float(nodes)):
                for _ in range(20):
                    v = rng.normal(size=nodes) + 1j * rng.normal(size=nodes)
                    v /= np.linalg.norm(v)
                    dev = np.abs(evolve(spec, profile, v, tau) - expm_propagate(G, v, tau))
                    worst = max(worst, float(dev.max()))
    return Check("propagator closed form vs matrix exponential", worst, 1e-8)


def check_quadrature(step: float, sizes) -> Check:
    """Probability and truncation-error maps vs composite Simpson with the
    given step, on dipolar rings of each size at T = N.  The amplitudes of a
    radius are W @ exp(-i lam_M (x) grid), W the weights of pairs (1, target)."""
    if not (math.isfinite(step) and step > 0.0 and max(sizes) / step + 2 <= MAX_QUAD_SAMPLES):
        raise ValueError(f"quadrature step must be positive, finite and need at most "
                         f"{MAX_QUAD_SAMPLES} samples, got {step!r}")
    worst = 0.0
    for nodes in sizes:
        t_max = float(nodes)
        window = TimeWindow(t_max)
        profile = dipolar_ratios(nodes)
        intervals = int(round(t_max / step))
        grid = np.linspace(0.0, t_max, intervals + intervals % 2 + 1)  # Simpson: even count
        W = np.stack([pair_mode_weights(nodes, 1, t) for t in independent_targets(nodes)])
        table = eigenvalue_table(ChainSpec.all_neighbors(nodes), profile)
        rows_ref = W @ np.exp(-1j * np.outer(table[-1], grid))
        den = np.array([simpson_integral(np.abs(r) ** 2, t_max) for r in rows_ref])
        probs = probability_map(nodes, profile, window)
        errors, _ = error_map(nodes, profile, window)
        for lam, prob_row, error_row in zip(table, probs, errors):
            rows = W @ np.exp(-1j * np.outer(lam, grid))
            quad_prob = np.array([simpson_integral(np.abs(r) ** 2, t_max) for r in rows])
            num = np.array([simpson_integral(np.abs(d) ** 2, t_max) for d in rows - rows_ref])
            quad_err = np.sqrt(num / den)
            worst = max(worst, float(np.abs(quad_prob / t_max - prob_row).max()),
                        float(np.abs(quad_err - error_row).max()))
    return Check(f"window integrals vs Simpson (step {step:g})", worst, 1e-6)


def check_perfect_transfer() -> Check:
    """The nearest-neighbour 4-ring moves the excitation from site 1 to
    site 3 with certainty at tau = pi/2."""
    p = amplitude(ChainSpec(4, 1), dipolar_ratios(4), 1, 3, np.pi / 2)
    return Check("perfect transfer across the 4-ring", abs(abs(p) ** 2 - 1.0), 1e-12)


def validation_checks(quad_step: float) -> list[Check]:
    """The five checks of `ringspin validate`, in report order; the
    quadrature runs on N = 10 and 13."""
    # first, so that a refused step costs nothing
    quadrature = check_quadrature(quad_step, (10, 13))
    return [*check_eigen(), check_propagator(), quadrature, check_perfect_transfer()]
