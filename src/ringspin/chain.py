"""Ring geometry, dimensionless couplings, and the one-excitation generator.

A homogeneous closed chain of N spin-1/2 nodes with XX coupling conserves
the number of flipped spins, so the dynamics of a single excitation lives in
an N-dimensional block.  When the coupling between two nodes depends only on
their cyclic distance, that block is a symmetric circulant matrix.

Everything here is dimensionless: couplings are expressed relative to the
nearest-neighbour coupling (d_1 = 1) and time is measured in units of 2/d_1,
so the propagator is exp(-i G tau) with G the matrix built below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainSpec",
    "CouplingProfile",
    "build_matrix",
    "dipolar_ratios",
    "max_neighbors",
]


def max_neighbors(nodes: int) -> int:
    """Largest meaningful interaction range on a ring of `nodes` sites.

    Equals nodes/2 for even rings (the opposite node is a single neighbour)
    and (nodes-1)/2 for odd rings.
    """
    if nodes < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {nodes}")
    return nodes // 2


@dataclass(frozen=True)
class ChainSpec:
    """Ring size and interaction range of one truncated model.

    `neighbors` is the truncation radius M: couplings beyond cyclic distance
    M are dropped.  M = max_neighbors(nodes) means all-node interaction.
    """

    nodes: int
    neighbors: int

    def __post_init__(self):
        nf = max_neighbors(self.nodes)
        if not 1 <= self.neighbors <= nf:
            raise ValueError(
                f"neighbors must lie in [1, {nf}] for {self.nodes} nodes, "
                f"got {self.neighbors}"
            )

    @classmethod
    def all_neighbors(cls, nodes: int) -> "ChainSpec":
        """Spec with the full interaction range (no truncation)."""
        return cls(nodes, max_neighbors(nodes))


@dataclass(frozen=True)
class CouplingProfile:
    """Dimensionless couplings d_k for cyclic distances k = 1..len(ratios).

    The first entry is pinned to 1 (nearest-neighbour normalization).  The
    mirror symmetry d_k = d_{N-k} of a ring is implicit: only distances up
    to max_neighbors are ever stored or indexed.
    """

    ratios: tuple[float, ...]
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if self.kind not in ("dipolar", "custom"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not self.ratios:
            raise ValueError("coupling profile must contain at least d_1")
        if not all(math.isfinite(r) for r in self.ratios):
            raise ValueError(f"couplings must be finite, got {self.ratios!r}")
        if self.ratios[0] != 1.0:
            raise ValueError(f"d_1 must equal 1 exactly, got {self.ratios[0]!r}")
        if self.kind == "dipolar" and any(r <= 0.0 for r in self.ratios):
            raise ValueError("dipolar couplings must be positive")

    def __len__(self) -> int:
        return len(self.ratios)


def dipolar_ratios(nodes: int) -> CouplingProfile:
    """Inverse-cube couplings for equally spaced nodes on a circle.

    The chord between sites at cyclic distance k has length 2R sin(pi k / N),
    so d_k / d_1 = (sin(pi/N) / sin(pi k/N))**3.  Returned for k up to
    max_neighbors(nodes); d_1 is exactly 1.
    """
    nf = max_neighbors(nodes)
    s1 = math.sin(math.pi / nodes)
    ratios = tuple((s1 / math.sin(math.pi * k / nodes)) ** 3 for k in range(1, nf + 1))
    return CouplingProfile(ratios, kind="dipolar")


def build_matrix(spec: ChainSpec, profile: CouplingProfile) -> np.ndarray:
    """Dense symmetric circulant generator of the one-excitation dynamics.

    Entry (j, k) equals the coupling at cyclic distance dist(j, k) when
    1 <= dist <= spec.neighbors and is exactly zero otherwise; the diagonal
    is zero.  Used as the reference path for oracle checks; production
    dynamics goes through the closed-form spectrum instead.
    """
    if len(profile) < spec.neighbors:
        raise ValueError(
            f"profile has {len(profile)} couplings but neighbors={spec.neighbors}"
        )
    n = spec.nodes
    idx = np.arange(n)
    dist = np.abs(idx[:, None] - idx[None, :])
    dist = np.minimum(dist, n - dist)
    # dist never exceeds n//2, so one lookup row covers every band
    lookup = np.zeros(n // 2 + 1)
    m = spec.neighbors
    lookup[1 : m + 1] = profile.ratios[:m]
    return lookup[dist]
