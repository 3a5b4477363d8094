"""Machine-speed probe: fixed work that shares no code with ringspin.

On a shared virtual machine the speed one process sees drifts by ±20% and
more over minutes, while a second process may not see the same drift.  The
benchmark therefore times this probe between ops, in its own process, and
scales op timings by REFERENCE_S / median(probe seconds): the result is
seconds at the speed the probe had when REFERENCE_S was measured.  A change
to ringspin moves the op times and leaves the probe alone, so it still shows
in full.

The probe mirrors the kernels of the workloads it serves: a cache-resident
quadratic-form contraction with a sine kernel, as in the N=70 maps, and
complex exponentials on a 10^4-point time grid, as in `validate`.  It calls
no BLAS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# median probe seconds on the reference machine (2 vCPUs, Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4.6)
REFERENCE_S = 0.012


def _filler(*shape: int) -> np.ndarray:
    """Fixed values spread over [0, 1) (golden-ratio sequence)."""
    return (np.arange(1, np.prod(shape) + 1) * 0.6180339887498949 % 1.0).reshape(shape)


class Probe:
    def __init__(self):
        self.kernel_args = _filler(160, 160)
        self.weights = _filler(96, 160)
        self.freqs = _filler(8)
        self.grid = np.linspace(0.0, 10.0, 10001)
        self.amplitudes = _filler(8)[::-1].copy()

    def run(self) -> float:
        """Wall seconds for one pass of the fixed work."""
        start = perf_counter()
        kernel = np.sin(3.7 * self.kernel_args) / (self.kernel_args + 1.0)
        np.einsum("tm,mn,tn->t", self.weights, kernel, self.weights)
        phases = np.exp(-1j * np.multiply.outer(self.grid, self.freqs))
        np.abs(np.einsum("tk,k->t", phases, self.amplitudes)) ** 2
        return perf_counter() - start
