"""Brute-force reference routes and the validation suite built on them.

The dense eigensolver, the matrix-exponential propagator built on it, and
composite Simpson quadrature are deliberately plain and unused by the
production path: they are an independent route to the closed-form spectrum
and the exact window integrals.  Each `check_*` compares the two routes and
returns a `Check`, the worst deviation with its tolerance.
`validation_checks` is the suite that `ringspin validate` prints; the
acceptance tests assert the same checks.  The eigen and propagator checks
work on stacks: `dense_eigen` takes every radius of a ring in one LAPACK
call, and `evolve` and `expm_propagate` take the states of all three times
of a generator at once, one tau per time.

The quadrature check applies composite Simpson to the powers of the
amplitudes sum_a W_a exp(-i lam_a tau) on a uniform grid of S samples, in
Gram form: no (targets x samples) array is built.  Sample j = b K + k, K
even and about sqrt(S), has phase Z_ak P_ab, Z_ak = exp(-i lam_a k h) and
P_ab = exp(-i lam_a b K h), and every block carries the weight row
w = (2, 4, ..., 2, 4) h/3, so the sum over whole blocks is W Re(G o H) W^T
with G = Z diag(w) Z^H and H = P P^H, two (modes x modes) Gram matrices.
Exact corrections from the samples themselves then remove what the block
pattern gets wrong at the ends: sample 0 and sample S - 1 weigh h/3, not
2h/3, and the samples past the grid in the last block weigh 0.  A radius
holds (modes x sqrt(S)) phase tables and (modes x modes) Gram matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, build_matrix, dipolar_ratios, max_neighbors
from .metrics import TimeWindow, error_map, independent_targets, probability_map
from .spectral import (_checked_states, _checked_tau, eigenvalue_shifts, evolve,
                       mode_multiplicities, pair_mode_weights)

__all__ = ["Check", "check_eigen", "check_perfect_transfer", "check_propagator",
           "check_quadrature", "dense_eigen", "expm_propagate", "validation_checks"]

MAX_EIGEN_SIZE = 256
MAX_PROPAGATE_SIZE = 64
# samples of one quadrature grid; the Simpson sums never hold the samples,
# only (modes x sqrt(samples)) phase tables, about 0.3 MB each at N = 40
MAX_QUAD_SAMPLES = 200_000
# projectors of eigenvalues closer than this are summed into one subspace
GROUP_TOL = 1e-6


def dense_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Full decomposition of a real symmetric matrix, or of each matrix of a
    stack (..., N, N), in one LAPACK call: `np.linalg.eigh`'s ascending
    eigenvalues and eigenvectors.  A non-square, oversize, non-finite or
    non-symmetric matrix is refused before LAPACK."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    if A.shape[-1] > MAX_EIGEN_SIZE:
        raise ValueError(f"oracle limited to {MAX_EIGEN_SIZE}x{MAX_EIGEN_SIZE}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    scale = np.maximum(np.abs(A).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(A - A.swapaxes(-2, -1)).max(axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(A)


def expm_propagate(matrix, initial, tau) -> np.ndarray:
    """exp(-i G tau) on each state stacked along the leading axes of `initial`
    (sites last), via the dense decomposition of the one generator G =
    `matrix`; a stack of states shares that decomposition.  `tau`, finite,
    is a scalar or broadcasts against the states' leading axes."""
    shape = np.shape(matrix)
    if len(shape) != 2:
        raise ValueError(f"expm_propagate takes one generator, not a stack: got shape {shape}")
    if shape[-1] > MAX_PROPAGATE_SIZE:
        raise ValueError(f"oracle limited to {MAX_PROPAGATE_SIZE} sites")
    v = _checked_states(initial, shape[-1])
    t = _checked_tau(tau)[..., None]
    values, vectors = dense_eigen(matrix)
    return ((v @ vectors) * np.exp(-1j * values * t)) @ vectors.T


def _simpson_step(count: int, t_max: float) -> float:
    """Step h of the composite Simpson rule on `count` uniform samples over
    [0, t_max]; `count` must be odd and at least 3."""
    if count < 3 or count % 2 == 0:
        raise ValueError(f"need an odd sample count >= 3, got {count}")
    return float(t_max) / (count - 1)


@dataclass(frozen=True)
class Check:
    """Worst deviation of one closed-form quantity from its oracle route."""

    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


def _eigenspaces(values) -> tuple[np.ndarray, np.ndarray]:
    """Indicators (rows, values, eigenspaces), zero-padded to the largest
    count, and each row's eigenspace count: values closer than GROUP_TOL to a
    neighbour share an eigenspace; eigenspaces ascend in eigenvalue."""
    ordered = np.sort(values, axis=-1)
    gaps = np.diff(ordered) > GROUP_TOL
    # the eigenspace of a value is the number of gaps that end at or below it
    space = np.sum(gaps[:, None, :] & (ordered[:, None, 1:] <= values[..., None]), axis=-1)
    counts = gaps.sum(axis=-1) + 1
    return (space[..., None] == np.arange(counts.max())).astype(float), counts


def check_eigen() -> tuple[Check, Check]:
    """Closed-form spectrum vs the dense solver on dipolar rings N = 3..16 at
    every radius: sorted eigenvalues, and the projector onto each eigenspace
    (infinite deviation if the eigenspace counts differ)."""
    worst_val = worst_proj = 0.0
    for nodes in range(3, 17):
        profile = dipolar_ratios(nodes)
        full = ChainSpec.all_neighbors(nodes)
        lam_ref, shifts = eigenvalue_shifts(full, profile)
        table = lam_ref + shifts  # (radii, modes)
        sites = np.arange(1, nodes + 1)
        shift = np.abs(sites[:, None] - sites)
        # the generator of radius M is the full one with cyclic distances beyond M zeroed
        within = np.minimum(shift, nodes - shift) <= np.arange(1, len(table) + 1)[:, None, None]
        values, V = dense_eigen(np.where(within, build_matrix(full, profile), 0.0))
        closed_values = np.sort(np.repeat(table, mode_multiplicities(nodes), axis=1), axis=1)
        worst_val = max(worst_val, float(np.abs(closed_values - values).max()))
        (closed, closed_counts), (brute, brute_counts) = map(_eigenspaces, (table, values))
        P = pair_mode_weights(nodes, sites[:, None], sites).reshape(nodes**2, -1)
        VV = (V[:, :, None, :] * V[:, None, :, :]).reshape(len(V), nodes**2, nodes)
        worst_proj = max(worst_proj, float(np.abs(P @ closed - VV @ brute).max())
                         if np.array_equal(closed_counts, brute_counts) else math.inf)
    return (
        Check("eigenvalues closed form vs dense solver", worst_val, 1e-10),
        Check("degenerate projectors closed form vs dense solver", worst_proj, 1e-8),
    )


def check_propagator() -> Check:
    """Closed-form propagation of 20 random normalized states vs the matrix
    exponential on dipolar rings of both parities, at the smallest and the
    largest radius and tau in {0.1, 1, N}; each generator is decomposed
    once, and its (3 taus, 20 states) stack propagates in one call per route."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for nodes in (4, 5, 8, 11, 12):
        profile = dipolar_ratios(nodes)
        tau = np.array([[0.1], [1.0], [float(nodes)]])  # broadcasts over the 20 states
        for m in (1, max_neighbors(nodes)):
            spec = ChainSpec(nodes, m)
            G = build_matrix(spec, profile)
            parts = rng.normal(size=(3, 20, 2, nodes))
            v = parts[:, :, 0] + 1j * parts[:, :, 1]
            v /= np.linalg.norm(v, axis=-1, keepdims=True)
            dev = np.abs(evolve(spec, profile, v, tau) - expm_propagate(G, v, tau))
            worst = max(worst, float(dev.max()))
    return Check("propagator closed form vs matrix exponential", worst, 1e-8)


def _simpson_power(W, lam, count: int, t_max: float) -> np.ndarray:
    """Composite Simpson sum over tau_j = j h, j < count, of
    |sum_a W_ta exp(-i lam_a tau_j)|^2 for each row t of the real W, in the
    Gram form of the module docstring: whole blocks of K samples, K even and
    about sqrt(count), then the corrections at both ends."""
    h = _simpson_step(count, t_max)
    K = (math.isqrt(count) + 1) // 2 * 2
    w = np.full(K, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    lam = np.asarray(lam)[:, None]
    Z = np.exp(-1j * lam * (np.arange(K) * h))            # (modes, K)
    P = np.exp(-1j * lam * (np.arange(0, count, K) * h))  # (modes, blocks)
    gram = ((Z * w) @ Z.conj().T * (P @ P.conj().T)).real
    # the block pattern's excess over the Simpson weights: h/3 on sample 0,
    # whose amplitude is the row sum of W, and on sample count - 1, and all
    # of w on the samples past the grid, both in the last block
    last = (W * P[:, -1]) @ Z                             # (targets, K)
    k0 = (count - 1) % K
    excess = w * (np.arange(K) > k0)
    excess[k0] = h / 3.0
    return (((W @ gram) * W).sum(axis=-1) - W.sum(axis=-1) ** 2 * (h / 3.0)
            - (last.real**2 + last.imag**2) @ excess)


def check_quadrature(step: float, sizes) -> Check:
    """Probability and truncation-error maps vs composite Simpson with the
    given step, on dipolar rings of each size at T = N.  The amplitudes of a
    radius are W @ exp(-i lam_M (x) grid), W the weights of pairs (1, target).
    The full radius, the reference, is summed once and has error exactly 0.
    A step that leaves a ring no interval is refused."""
    if not (math.isfinite(step) and step > 0.0 and max(sizes) / step + 2 <= MAX_QUAD_SAMPLES
            and round(min(sizes) / step) > 0):
        raise ValueError(f"quadrature step must be positive, finite, below twice the "
                         f"smallest ring and need at most {MAX_QUAD_SAMPLES} samples, "
                         f"got {step!r}")
    worst = 0.0
    for nodes in sizes:
        t_max = float(nodes)
        window = TimeWindow(t_max)
        profile = dipolar_ratios(nodes)
        intervals = int(round(t_max / step))
        count = intervals + intervals % 2 + 1  # Simpson: an even interval count
        W = pair_mode_weights(nodes, 1, np.array(independent_targets(nodes)))
        lam_ref, shifts = eigenvalue_shifts(ChainSpec.all_neighbors(nodes), profile)
        den = _simpson_power(W, lam_ref, count, t_max)
        probs = probability_map(nodes, profile, window)
        errors, _ = error_map(nodes, profile, window)
        worst = max(worst, float(np.abs(den / t_max - probs[-1]).max()),
                    float(np.abs(errors[-1]).max()))
        # the amplitude difference p_M - p_ref has modes [lam_M, lam_ref], weights [W, -W]
        joint = np.hstack((W, -W))
        for lam, prob_row, error_row in zip(lam_ref + shifts[:-1], probs, errors):
            quad_prob = _simpson_power(W, lam, count, t_max)
            quad_num = _simpson_power(joint, np.concatenate((lam, lam_ref)), count, t_max)
            worst = max(worst, float(np.abs(quad_prob / t_max - prob_row).max()),
                        float(np.abs(np.sqrt(quad_num / den) - error_row).max()))
    return Check(f"window integrals vs Simpson (step {step:g})", worst, 1e-6)


def check_perfect_transfer() -> Check:
    """The nearest-neighbour 4-ring moves the excitation from site 1 to
    site 3 with certainty at tau = pi/2."""
    p = evolve(ChainSpec(4, 1), dipolar_ratios(4), np.eye(4)[0], np.pi / 2)[2]
    return Check("perfect transfer across the 4-ring", abs(abs(p) ** 2 - 1.0), 1e-12)


def validation_checks(quad_step: float) -> list[Check]:
    """The five checks of `ringspin validate`, in report order; the
    quadrature runs on N = 10 and 13."""
    # first, so that a refused step costs nothing
    quadrature = check_quadrature(quad_step, (10, 13))
    return [*check_eigen(), check_propagator(), quadrature, check_perfect_transfer()]
