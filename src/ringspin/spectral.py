"""Closed-form spectrum of the circulant block: eigenvalues, eigenspace
projectors and propagation.

A symmetric circulant N x N matrix is diagonalized by plane waves with wave
numbers p_q = 2 pi q / N, q = 0..N-1.  The waves q and N-q share one
eigenvalue, so only the modes m = 1..N//2+1 (p_m = 2 pi (m-1) / N) are
independent.  Mode m has multiplicity 1 when it is the uniform mode or, on
an even ring, the alternating mode m = N/2+1, and 2 otherwise.

The eigenspaces do not depend on the truncation radius M; only the
eigenvalues do:

    lam_m = 2 sum_{j=1..M} d_j cos(p_m j)                  (M < N/2, any N)
    lam_m = 2 sum_{j<N/2}  d_j cos(p_m j) + (-1)^(m-1) d_{N/2}
                                                           (even N, M = N/2)

The projector onto the eigenspace of mode m is itself circulant,

    (P_m)_{jk} = w_m(j - k),   w_m(s) = (mult_m / N) cos(p_m s),

and no eigenvector basis is ever formed.  Probability amplitudes are matrix
elements of the propagator sum_m exp(-i lam_m tau) P_m,

    p_{jk}(tau) = sum_m w_m(j - k) exp(-i lam_m tau),

real-symmetric in (j, k) and exactly unitary in the closed form: entry k
of `evolve` on the site state e_j.
"""

from __future__ import annotations

import numpy as np

from .chain import ChainSpec, CouplingProfile, _radius_ratios, max_neighbors

__all__ = [
    "eigenvalue_shifts",
    "eigenvalues",
    "evolve",
    "mode_count",
    "mode_multiplicities",
    "pair_mode_weights",
    "wave_numbers",
]

STATE_NORM_TOL = 1e-9
# largest eigenvalue magnitude accepted: the difference of two stays finite
_MAX_EIGENVALUE = float(np.finfo(float).max) / 4


def mode_count(nodes: int) -> int:
    """Number of independent wave numbers, N//2 + 1 for either parity."""
    return nodes // 2 + 1


def wave_numbers(nodes: int) -> np.ndarray:
    """p_m = 2 pi (m-1) / N for the retained modes m = 1..mode_count."""
    return 2.0 * np.pi * np.arange(mode_count(nodes)) / nodes


def mode_multiplicities(nodes: int) -> np.ndarray:
    """Eigenspace dimension per mode: 1 for the uniform (and, even N,
    alternating) mode, 2 for every other mode.  Sums to N."""
    mult = np.full(mode_count(nodes), 2, dtype=int)
    mult[0] = 1
    if nodes % 2 == 0:
        mult[-1] = 1
    return mult


def _checked(values: np.ndarray) -> np.ndarray:
    """`values`, refused when an eigenvalue overflowed or is so large that
    the difference of two of them would."""
    if not np.abs(values).max() <= _MAX_EIGENVALUE:
        raise ValueError("couplings too large: the eigenvalues of this profile overflow")
    return values


def _eigenvalue_terms(spec: ChainSpec, profile: CouplingProfile) -> np.ndarray:
    """2 d_j cos(p_m j) for j = 1..spec.neighbors (rows) and every mode; on
    an even ring the j = N/2 term is halved: the opposite node is a single
    neighbour, not a pair.  Callers sum the terms under np.errstate and
    check the sums, so an overflow is refused as a profile error."""
    twice = 2.0 * np.array(_radius_ratios(spec, profile))
    if 2 * spec.neighbors == spec.nodes:
        twice[-1] *= 0.5
    j = np.arange(1, spec.neighbors + 1)
    return twice[:, None] * np.cos(np.multiply.outer(j, wave_numbers(spec.nodes)))


def eigenvalue_shifts(spec: ChainSpec, profile: CouplingProfile) -> tuple[np.ndarray, np.ndarray]:
    """(lam_ref, shifts): the mode eigenvalues at radius spec.neighbors, and
    for every radius M = 1..spec.neighbors the shift lam_m(M) - lam_ref,
    which is minus the sum of the terms beyond M.

    Every eigenvalue of the package comes from this one reverse cumulative
    sum.  Summed tail first, lam_ref stays within eps sum_j |terms| of the
    exact sum of its terms on dipolar rings N = 3..299.  The shifts are
    tails of that sum, never the difference of two rounded eigenvalues, so
    a tail of couplings far below one ulp still shifts them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        tails = _checked(_eigenvalue_terms(spec, profile)[::-1].cumsum(axis=0)[::-1])
    shifts = np.empty_like(tails)
    np.negative(tails[1:], out=shifts[:-1])
    shifts[-1] = 0.0
    return tails[0], shifts


def eigenvalues(spec: ChainSpec, profile: CouplingProfile) -> np.ndarray:
    """All N eigenvalues in DFT order q = 0..N-1: entry q is the eigenvalue
    of mode min(q, N-q) + 1, the eigenvalue of wave number 2 pi q / N."""
    lam = eigenvalue_shifts(spec, profile)[0]
    return np.concatenate((lam, lam[(spec.nodes - 1) // 2 : 0 : -1]))


def pair_mode_weights(nodes: int, j, k) -> np.ndarray:
    """Spectral weights of the (j, k) matrix element, one per mode (last axis).

    w_m = (P_m)_{jk} = (mult_m / N) cos(p_m (j - k)), the entry of the
    eigenspace projector of mode m; the amplitude is then
    p_{jk}(tau) = sum_m w_m exp(-i lam_m tau).  Sites are 1-based integers,
    integral floats included; array sites broadcast against each other.
    """
    max_neighbors(nodes)  # refuses a ring of fewer than 3 nodes
    j, k = np.asarray(j), np.asarray(k)
    if not (np.all((1 <= j) & (j <= nodes)) and np.all((1 <= k) & (k <= nodes))):
        raise ValueError(f"sites must lie in [1, {nodes}], got ({j}, {k})")
    if any(s.dtype.kind not in "biu" and not np.all(s % 1 == 0) for s in (j, k)):
        raise ValueError(f"sites must be integers, got ({j}, {k})")
    shift = (j - k)[..., None]
    return mode_multiplicities(nodes) / nodes * np.cos(wave_numbers(nodes) * shift)


def _checked_tau(tau) -> np.ndarray:
    """`tau` as a float array, refused unless every entry is finite."""
    t = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("tau must be finite")
    return t


def _checked_states(initial, nodes: int) -> np.ndarray:
    """`initial` as complex states stacked on its leading axes (sites last),
    refused unless every state has `nodes` sites and unit norm."""
    v = np.asarray(initial, dtype=complex)
    if v.shape[-1:] != (nodes,):
        raise ValueError(f"states must have shape (..., {nodes}), got {v.shape}")
    norm_sq = np.sum(np.abs(v) ** 2, axis=-1).reshape(-1)
    off = np.nan_to_num(np.abs(norm_sq - 1.0), nan=np.inf)
    if np.any(off > STATE_NORM_TOL):
        worst = int(off.argmax())
        raise ValueError(f"state {worst} of {off.size} is not normalized: "
                         f"sum |a_j|^2 = {norm_sq[worst]!r}")
    return v


def evolve(spec: ChainSpec, profile: CouplingProfile, initial, tau) -> np.ndarray:
    """Propagate one-excitation states by dimensionless time tau.

    `initial` stacks unit-norm length-N states on its leading axes (one state
    is a stack of one) and `tau`, finite, is a scalar or broadcasts against
    those axes.  The result, of the broadcast shape, is ifft(exp(-i lam_q tau)
    fft(state)) along the last axis, unitary to rounding.
    """
    v = _checked_states(initial, spec.nodes)
    phases = np.exp(eigenvalues(spec, profile) * (-1j * _checked_tau(tau)[..., None]))
    return np.fft.ifft(phases * np.fft.fft(v))
