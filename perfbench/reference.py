"""Independent reference for the window-averaged maps, used to check outputs.

Shares no code with ringspin.  The one-excitation generator of an N-ring is a
symmetric circulant matrix, so its eigenvalues are the real DFT of its first
row and the amplitude from site 1 to site n is an inverse DFT:

    p_{1n}(tau) = (1/N) sum_q exp(-i lam_q tau) exp(2 pi i q (n-1) / N).

Window integrals are taken by composite Gauss-Legendre quadrature.  The
integrands are band-limited by the spectral width, so 16 nodes per unit of
time resolve them to rounding, and the truncation error comes out without
the cancellation a closed-form difference of quadratic forms suffers.
"""

from __future__ import annotations

import math

import numpy as np

NODES_PER_PANEL = 16


def dipolar_couplings(nodes: int) -> np.ndarray:
    """d_k for k = 1..N//2 on an equally spaced ring (inverse-cube law)."""
    k = np.arange(1, nodes // 2 + 1)
    return (math.sin(math.pi / nodes) / np.sin(np.pi * k / nodes)) ** 3


def ring_eigenvalues(nodes: int, couplings, radius: int) -> np.ndarray:
    """All N eigenvalues of the ring truncated at cyclic distance `radius`."""
    k = np.arange(nodes)
    dist = np.minimum(k, nodes - k)
    row = np.zeros(nodes)
    keep = (dist >= 1) & (dist <= radius)
    row[keep] = np.asarray(couplings)[dist[keep] - 1]
    return np.fft.fft(row).real


def _quadrature(t_max: float):
    panels = max(1, math.ceil(t_max))
    x, w = np.polynomial.legendre.leggauss(NODES_PER_PANEL)
    h = t_max / panels
    starts = np.arange(panels)[:, None] * h
    taus = (starts + (x[None, :] + 1.0) * h / 2.0).ravel()
    weights = np.tile(w * h / 2.0, panels)
    return taus, weights


def _amplitudes(lam: np.ndarray, taus: np.ndarray, targets: int) -> np.ndarray:
    """p_{1n}(tau) for n = 1..targets, shape (len(taus), targets)."""
    return np.fft.ifft(np.exp(-1j * np.outer(taus, lam)), axis=1)[:, :targets]


class RingReference:
    """Window-averaged probabilities and truncation errors of one ring."""

    def __init__(self, nodes: int, couplings, t_max: float):
        self.nodes = nodes
        self.couplings = np.asarray(couplings, dtype=float)
        self.t_max = float(t_max)
        self.targets = nodes // 2 + 1
        self.taus, self.weights = _quadrature(self.t_max)
        self._ref = self._amps(nodes // 2)
        self.ref_power = self.weights @ np.abs(self._ref) ** 2

    def _amps(self, radius: int) -> np.ndarray:
        lam = ring_eigenvalues(self.nodes, self.couplings, radius)
        return _amplitudes(lam, self.taus, self.targets)

    def row(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, errors) over targets 1..N//2+1 at one radius."""
        amps = self._amps(radius)
        probs = self.weights @ np.abs(amps) ** 2 / self.t_max
        num = self.weights @ np.abs(amps - self._ref) ** 2
        return probs, np.sqrt(num / self.ref_power)
