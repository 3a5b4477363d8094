"""Closed-form eigensystem of the circulant block and probability amplitudes.

A symmetric circulant N x N matrix is diagonalized by plane waves with wave
numbers p_m = 2 pi (m-1) / N.  Combining e^{+i p_m k} and e^{-i p_m k} gives
real cosine/sine eigenvector pairs; the modes m and N+2-m are redundant, so
only m = 1 .. N/2+1 (even N) or m = 1 .. (N+1)/2 (odd N) are kept:

    cos mode:  sqrt(2/N) cos(p_m k)      k = 1..N
    sin mode:  sqrt(2/N) sin(p_m k)

with the two exceptions m = 1 (uniform vector, entries 1/sqrt(N)) and, for
even N, m = N/2+1 (alternating (-1)^k / sqrt(N)), which have no sine partner.

The eigenvectors do not depend on the truncation radius M; only the
eigenvalues do:

    lam_m = 2 sum_{j=1..M} d_j cos(p_m j)                  (M < N/2, any N)
    lam_m = 2 sum_{j<N/2}  d_j cos(p_m j) + (-1)^(m-1) d_{N/2}
                                                           (even N, M = N/2)

Columns are ordered mode-wise: the uniform vector first, then (for even N)
the alternating vector, then cos/sin pairs with increasing m.  Probability
amplitudes are matrix elements of the propagator,

    p_{jk}(tau) = sum_n U_{jn} U_{kn} exp(-i lam_n tau),

real-symmetric in (j, k) and exactly unitary in the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import ChainSpec, CouplingProfile

__all__ = [
    "Spectrum",
    "amplitude",
    "eigenvalue_table",
    "eigenvalues",
    "eigenvectors",
    "evolve",
    "mode_count",
    "mode_eigenvalues",
    "mode_multiplicities",
    "spectrum",
    "wave_numbers",
]

STATE_NORM_TOL = 1e-9


def mode_count(nodes: int) -> int:
    """Number of independent wave numbers: N/2+1 (even N) or (N+1)/2 (odd)."""
    return nodes // 2 + 1 if nodes % 2 == 0 else (nodes + 1) // 2


def wave_numbers(nodes: int) -> np.ndarray:
    """p_m = 2 pi (m-1) / N for the retained modes m = 1..mode_count."""
    m = np.arange(1, mode_count(nodes) + 1)
    return 2.0 * np.pi * (m - 1) / nodes


def mode_multiplicities(nodes: int) -> np.ndarray:
    """Eigenvector count per mode: 1 for the uniform (and, even N,
    alternating) mode, 2 for every cos/sin pair."""
    mult = np.full(mode_count(nodes), 2, dtype=int)
    mult[0] = 1
    if nodes % 2 == 0:
        mult[-1] = 1
    return mult


@lru_cache(maxsize=8)
def _basis(nodes: int):
    """Orthonormal eigenvector matrix, per-column mode index, and the
    column->mode aggregation matrix.  The same arrays serve every truncation
    radius; a few recent ring sizes are cached, each holding an N x N
    matrix."""
    if nodes < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {nodes}")
    n = nodes
    nm = mode_count(n)
    U = np.zeros((n, n))
    column_modes = np.zeros(n, dtype=int)
    k = np.arange(1, n + 1)
    U[:, 0] = 1.0 / np.sqrt(n)
    column_modes[0] = 1
    if n % 2 == 0:
        U[:, 1] = ((-1.0) ** k) / np.sqrt(n)
        column_modes[1] = nm
        pair_cols = {m: (2 * m - 2, 2 * m - 1) for m in range(2, n // 2 + 1)}
    else:
        pair_cols = {m: (2 * m - 3, 2 * m - 2) for m in range(2, (n + 1) // 2 + 1)}
    amp = np.sqrt(2.0 / n)
    for m, (c_cos, c_sin) in pair_cols.items():
        pm = 2.0 * np.pi * (m - 1) / n
        U[:, c_cos] = amp * np.cos(pm * k)
        U[:, c_sin] = amp * np.sin(pm * k)
        column_modes[c_cos] = m
        column_modes[c_sin] = m
    # aggregation[c, m-1] = 1 iff column c belongs to mode m
    aggregation = np.zeros((n, nm))
    aggregation[np.arange(n), column_modes - 1] = 1.0
    for a in (U, column_modes, aggregation):
        a.setflags(write=False)
    return U, column_modes, aggregation


def eigenvectors(nodes: int) -> np.ndarray:
    """Orthonormal real eigenvector matrix, identical for every truncation
    radius.  Returned read-only; copy before mutating."""
    return _basis(nodes)[0]


def eigenvalue_table(spec: ChainSpec, profile: CouplingProfile) -> np.ndarray:
    """Mode eigenvalues for every truncation radius M = 1..spec.neighbors.

    Row M-1 holds lam_m(M) = 2 sum_{j<=M} d_j cos(p_m j), so the whole table
    is one cumulative sum over j.  On an even ring the j = N/2 term is
    halved: the opposite node is a single neighbour, not a pair.
    """
    if len(profile) < spec.neighbors:
        raise ValueError(
            f"profile has {len(profile)} couplings but neighbors={spec.neighbors}"
        )
    j = np.arange(1, spec.neighbors + 1)
    ratios = np.asarray(profile.ratios[: spec.neighbors])
    terms = 2.0 * ratios[:, None] * np.cos(np.outer(j, wave_numbers(spec.nodes)))
    if 2 * spec.neighbors == spec.nodes:
        terms[-1] *= 0.5
    return np.cumsum(terms, axis=0)


def mode_eigenvalues(spec: ChainSpec, profile: CouplingProfile) -> np.ndarray:
    """One eigenvalue per retained mode (length mode_count): the last row
    of eigenvalue_table."""
    return eigenvalue_table(spec, profile)[-1]


def eigenvalues(spec: ChainSpec, profile: CouplingProfile) -> np.ndarray:
    """All N eigenvalues, repeated per degenerate pair and aligned with the
    columns of eigenvectors(nodes)."""
    lam = mode_eigenvalues(spec, profile)
    column_modes = _basis(spec.nodes)[1]
    return lam[column_modes - 1]


@dataclass(frozen=True)
class Spectrum:
    """Complete closed-form eigensystem of one truncated ring model."""

    nodes: int
    neighbors: int
    wave_numbers: np.ndarray     # per retained mode
    mode_values: np.ndarray      # eigenvalue per mode
    multiplicities: np.ndarray   # 1 or 2 per mode
    vectors: np.ndarray          # (N, N) orthonormal, M-independent
    column_modes: np.ndarray     # 1-based mode index of each column

    @property
    def values(self) -> np.ndarray:
        """Length-N eigenvalue list aligned with the columns of `vectors`."""
        return self.mode_values[self.column_modes - 1]


def spectrum(spec: ChainSpec, profile: CouplingProfile) -> Spectrum:
    U, column_modes, _ = _basis(spec.nodes)
    return Spectrum(
        nodes=spec.nodes,
        neighbors=spec.neighbors,
        wave_numbers=wave_numbers(spec.nodes),
        mode_values=mode_eigenvalues(spec, profile),
        multiplicities=mode_multiplicities(spec.nodes),
        vectors=U,
        column_modes=column_modes,
    )


def pair_mode_weights(nodes: int, j: int, k: int) -> np.ndarray:
    """Spectral weights of the (j, k) matrix element, one per mode.

    w_m = sum over the columns of mode m of U_{j,c} U_{k,c}; the amplitude is
    then p_{jk}(tau) = sum_m w_m exp(-i lam_m tau).  Sites are 1-based.
    """
    U, _, aggregation = _basis(nodes)
    if not (1 <= j <= nodes and 1 <= k <= nodes):
        raise ValueError(f"sites must lie in [1, {nodes}], got ({j}, {k})")
    return (U[j - 1] * U[k - 1]) @ aggregation


def amplitude(spec: ChainSpec, profile: CouplingProfile, j: int, k: int, tau):
    """Probability amplitude p_{jk}(tau) for the transfer j -> k.

    `tau` may be a scalar or an array; the result matches its shape.
    """
    w = pair_mode_weights(spec.nodes, j, k)
    lam = mode_eigenvalues(spec, profile)
    t = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("tau must be finite")
    phases = np.exp(-1j * np.multiply.outer(t, lam))
    return phases @ w


def evolve(spec: ChainSpec, profile: CouplingProfile, initial, tau: float) -> np.ndarray:
    """Propagate a one-excitation state vector by dimensionless time tau.

    `initial` must be a length-N complex vector with unit norm; the result
    is U exp(-i Lam tau) U^T initial, unitary to rounding.
    """
    v = np.asarray(initial, dtype=complex)
    if v.shape != (spec.nodes,):
        raise ValueError(f"state must have shape ({spec.nodes},), got {v.shape}")
    norm_sq = float(np.sum(np.abs(v) ** 2))
    if abs(norm_sq - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state is not normalized: sum |a_j|^2 = {norm_sq!r}")
    U = eigenvectors(spec.nodes)
    lam = eigenvalues(spec, profile)
    return U @ (np.exp(-1j * lam * float(tau)) * (U.T @ v))
