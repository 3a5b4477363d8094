"""Window-averaged transfer probabilities and truncation-error integrals.

From site 1 the amplitude to site n = s+1 is a finite cosine sum over the
retained modes a, with wave numbers p_a = 2 pi k_a / N (k_a = a-1) and
g_a = multiplicity_a / N:

    p_{1,s+1}(tau) = sum_a c_a(s) e^{-i lam_a tau},   c_a(s) = g_a cos(p_a s).

So every window integral over [0, T] is a closed-form quadratic form,

    integral_0^T |p_{1,s+1}|^2 dtau = sum_{a,b} c_a(s) c_b(s) K_ab,
    K_ab = sin((lam_a - lam_b) T) / (lam_a - lam_b),  or T when degenerate.

The fold cos A cos B = [cos(A-B) + cos(A+B)] / 2 turns it into a function of
the mode-index offsets (k_a - k_b) mod N and (k_a + k_b) mod N: summing
g_a g_b K_ab / 2 over both offsets into a length-N histogram h, the form for
every target s = 0..N/2 is Re sum_r h_r e^{-2 pi i r s / N}, one real FFT.
That is O(N^2) per radius and O(N^3) per (M, target) map.

The truncation error of transfer 1 -> n at radius M is the relative L2
deviation sqrt(int |p - p_ref|^2 / int |p_ref|^2) from the all-node
amplitude; its numerator is the fold of
K(lam, lam) + K(lam_ref, lam_ref) - 2 K(lam, lam_ref).  Mirror symmetry makes
targets n and N+2-n equivalent, so only n = 1..max_neighbors+1 are computed;
parity weights restore the full-ring average.  The scalar metrics are views
on the same kernel; composite-Simpson quadrature is only a cross-check (see
`oracle`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, CouplingProfile, max_neighbors
from .spectral import eigenvalue_table, mode_count, mode_eigenvalues, mode_multiplicities

__all__ = [
    "DEGENERACY_TOL",
    "ThresholdResult",
    "TimeWindow",
    "TransferMetrics",
    "accuracy_threshold",
    "avg_probability",
    "error_map",
    "independent_targets",
    "mean_truncation_error",
    "probability_map",
    "target_multiplicities",
    "transfer_metrics",
    "trig_power_integral",
    "truncation_error",
]

# frequencies closer than this are integrated as exactly degenerate
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class TimeWindow:
    """Averaging interval [0, t_max] in dimensionless time."""

    t_max: float

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max!r}")

    @classmethod
    def matched(cls, nodes: int) -> "TimeWindow":
        """The default window T = N used throughout the analysis."""
        return cls(float(nodes))


def independent_targets(nodes: int) -> tuple[int, ...]:
    """Target sites not related by ring reflection: n = 1..max_neighbors+1."""
    return tuple(range(1, max_neighbors(nodes) + 2))


def target_multiplicities(nodes: int) -> np.ndarray:
    """How many ring sites each independent target stands for; sums to N."""
    nf = max_neighbors(nodes)
    mult = np.full(nf + 1, 2, dtype=int)
    mult[0] = 1
    if nodes % 2 == 0:
        mult[-1] = 1
    return mult


def _window_kernel(lam_a: np.ndarray, lam_b: np.ndarray, t_max: float) -> np.ndarray:
    """K_ab = Re integral_0^T e^{-i (lam_a - lam_b) tau} dtau."""
    delta = lam_a[:, None] - lam_b[None, :]
    near = np.abs(delta) <= DEGENERACY_TOL
    safe = np.where(near, 1.0, delta)
    return np.where(near, t_max, np.sin(delta * t_max) / safe)


def trig_power_integral(coeffs, freqs, t_max: float) -> float:
    """integral_0^T |sum_a c_a e^{-i nu_a tau}|^2 dtau, exactly.

    Coefficients must be real (spectral weights of a symmetric propagator
    always are).  Clipped at zero against rounding.
    """
    c = np.asarray(coeffs, dtype=float)
    nu = np.asarray(freqs, dtype=float)
    if c.shape != nu.shape or c.ndim != 1:
        raise ValueError("coeffs and freqs must be 1-D arrays of equal length")
    value = float(c @ _window_kernel(nu, nu, t_max) @ c)
    return max(value, 0.0)


def _target_fold(nodes: int):
    """Map a mode kernel K to sum_ab c_a(s) c_b(s) K_ab for every independent
    target s = 0..N//2, by the offset fold of the module docstring."""
    k = np.arange(mode_count(nodes))
    g = mode_multiplicities(nodes) / nodes
    half_gg = 0.5 * np.outer(g, g)
    diff = ((k[:, None] - k[None, :]) % nodes).ravel()
    total = ((k[:, None] + k[None, :]) % nodes).ravel()

    def fold(kernel: np.ndarray) -> np.ndarray:
        w = (half_gg * kernel).ravel()
        h = np.bincount(diff, w, nodes) + np.bincount(total, w, nodes)
        return np.fft.rfft(h).real

    return fold


def _finite(values: np.ndarray) -> np.ndarray:
    """`values`, refused when the window integrals overflowed to inf or nan."""
    if not np.all(np.isfinite(values)):
        raise ValueError("window integrals are not finite: t_max too large for this spectrum")
    return values


def _mode_probabilities(nodes: int, lam_rows: np.ndarray, t_max: float) -> np.ndarray:
    """Window-averaged probabilities 1 -> n (columns: independent targets)
    for each row of mode eigenvalues."""
    fold = _target_fold(nodes)
    with np.errstate(all="ignore"):
        forms = np.array([fold(_window_kernel(lam, lam, t_max)) for lam in lam_rows])
    return _finite(np.maximum(forms, 0.0) / t_max)


def _mode_errors(
    nodes: int, lam_rows: np.ndarray, lam_ref: np.ndarray, t_max: float
) -> np.ndarray:
    """Truncation errors (columns: independent targets) of each row of mode
    eigenvalues against the reference spectrum lam_ref."""
    fold = _target_fold(nodes)
    with np.errstate(all="ignore"):
        k_ref = _window_kernel(lam_ref, lam_ref, t_max)
        den = fold(k_ref)
        if np.any(den <= 0.0):
            raise ValueError("degenerate window: reference amplitude has no power")
        num = np.array([
            fold(_window_kernel(lam, lam, t_max) + k_ref
                 - 2.0 * _window_kernel(lam, lam_ref, t_max))
            for lam in lam_rows
        ])
        return _finite(np.sqrt(np.maximum(num, 0.0) / den))


def _target_index(nodes: int, target: int) -> int:
    """Column of `target` in the per-target arrays, by mirror symmetry."""
    if not 1 <= target <= nodes:
        raise ValueError(f"target must lie in [1, {nodes}], got {target}")
    return min(target, nodes + 2 - target) - 1


def avg_probability(
    spec: ChainSpec, profile: CouplingProfile, target: int, window: TimeWindow
) -> float:
    """Transfer probability |p_{1,target}(tau)|^2 averaged over the window."""
    i = _target_index(spec.nodes, target)
    lam = mode_eigenvalues(spec, profile)
    return float(_mode_probabilities(spec.nodes, lam[None], window.t_max)[0, i])


def truncation_error(
    spec: ChainSpec, profile: CouplingProfile, target: int, window: TimeWindow
) -> float:
    """Relative L2 error of the M-truncated amplitude 1 -> target against the
    all-node dynamics over the window.  Zero when spec is untruncated."""
    i = _target_index(spec.nodes, target)
    return float(transfer_metrics(spec, profile, window).errors[i])


def mean_truncation_error(
    spec: ChainSpec, profile: CouplingProfile, window: TimeWindow
) -> float:
    """Truncation error averaged over all N targets via mirror multiplicity:
    endpoints count once (twice for the odd-N halfway site), interior targets
    twice, total weight N."""
    return transfer_metrics(spec, profile, window).mean_error


@dataclass(frozen=True)
class TransferMetrics:
    """Per-target window metrics of one truncated model."""

    targets: tuple[int, ...]
    avg_probabilities: np.ndarray
    errors: np.ndarray
    mean_error: float


def transfer_metrics(
    spec: ChainSpec, profile: CouplingProfile, window: TimeWindow
) -> TransferMetrics:
    """Probabilities and truncation errors of every independent target at
    one radius; the profile must cover the full range for the reference."""
    table = eigenvalue_table(ChainSpec.all_neighbors(spec.nodes), profile)
    lam = table[spec.neighbors - 1 : spec.neighbors]
    probs = _mode_probabilities(spec.nodes, lam, window.t_max)[0]
    if spec.untruncated:
        errors = np.zeros_like(probs)  # truncated and reference dynamics coincide
    else:
        errors = _mode_errors(spec.nodes, lam, table[-1], window.t_max)[0]
    mult = target_multiplicities(spec.nodes)
    return TransferMetrics(
        targets=independent_targets(spec.nodes),
        avg_probabilities=probs,
        errors=errors,
        mean_error=float(mult @ errors) / spec.nodes,
    )


def probability_map(
    nodes: int, profile: CouplingProfile, window: TimeWindow
) -> np.ndarray:
    """Averaged probabilities for every truncation radius.

    Returns an array of shape (max_neighbors, targets): row M-1 holds the
    window-averaged probabilities 1 -> n for n in independent_targets.
    """
    table = eigenvalue_table(ChainSpec.all_neighbors(nodes), profile)
    return _mode_probabilities(nodes, table, window.t_max)


def error_map(
    nodes: int, profile: CouplingProfile, window: TimeWindow
) -> tuple[np.ndarray, np.ndarray]:
    """Truncation errors for every radius and target.

    Returns (errors, means): errors has shape (max_neighbors, targets) and
    means the parity-weighted average per radius.  The full-range row is
    exactly zero, because it reproduces the reference.
    """
    table = eigenvalue_table(ChainSpec.all_neighbors(nodes), profile)
    errors = _mode_errors(nodes, table, table[-1], window.t_max)
    errors[-1] = 0.0
    means = (errors @ target_multiplicities(nodes)) / nodes
    return errors, means


@dataclass(frozen=True)
class ThresholdResult:
    """Smallest truncation radius meeting a worst-case error tolerance."""

    min_neighbors: int
    epsilon: float
    max_error_per_m: np.ndarray  # worst error over targets, index M-1

    def __post_init__(self):
        tail = self.max_error_per_m[self.min_neighbors - 1 :]
        if np.any(tail > self.epsilon):
            raise ValueError("threshold does not dominate its suffix")


def accuracy_threshold(
    nodes: int, profile: CouplingProfile, epsilon: float, window: TimeWindow
) -> ThresholdResult:
    """Minimal M such that the worst-case truncation error stays at or below
    epsilon for every radius from M up to all-node interaction.

    The per-radius worst errors are returned alongside so the monotonicity
    of the sweep can be audited.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    errors, _ = error_map(nodes, profile, window)
    worst = errors.max(axis=1)
    failing = np.nonzero(worst > epsilon)[0]
    m_star = int(failing.max()) + 2 if failing.size else 1
    return ThresholdResult(
        min_neighbors=m_star, epsilon=epsilon, max_error_per_m=worst
    )
