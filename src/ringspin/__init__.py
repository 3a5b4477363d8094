"""One-excitation dynamics of closed homogeneous XX spin chains.

Closed-form spectral dynamics of a single excitation on an N-node ring with
couplings truncated at cyclic distance M, exact window-averaged transfer
metrics, the accuracy threshold of the truncation, the exact error of the
whole evolved state, and the scale of the averaged error curve against it.
"""

from .chain import (
    ChainSpec,
    CouplingProfile,
    build_matrix,
    dipolar_ratios,
    max_neighbors,
)
from .fitting import ScaleFit, fit_scale
from .metrics import (
    ThresholdResult,
    TimeWindow,
    accuracy_threshold,
    error_map,
    independent_targets,
    probability_map,
    state_error,
)
from .spectral import eigenvalues, evolve

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "CouplingProfile",
    "ScaleFit",
    "ThresholdResult",
    "TimeWindow",
    "accuracy_threshold",
    "build_matrix",
    "dipolar_ratios",
    "eigenvalues",
    "error_map",
    "evolve",
    "fit_scale",
    "independent_targets",
    "max_neighbors",
    "probability_map",
    "state_error",
]
