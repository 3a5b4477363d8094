"""One-excitation dynamics of closed homogeneous XX spin chains.

Closed-form spectral dynamics of a single excitation on an N-node ring with
couplings truncated at cyclic distance M, exact window-averaged transfer
metrics, the accuracy threshold of the truncation, and the empirical fit of
the averaged error curve.
"""

from .chain import (
    ChainSpec,
    CouplingProfile,
    build_matrix,
    dipolar_ratios,
    max_neighbors,
)
from .fitting import (
    FitParams,
    decay_model,
    fit_decay,
    fit_trends,
)
from .metrics import (
    ThresholdResult,
    TimeWindow,
    accuracy_threshold,
    error_map,
    independent_targets,
    probability_map,
)
from .oracle import DenseEigenResult, dense_eigen, expm_propagate, simpson_integral
from .spectral import amplitude, eigenvalues, evolve

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "CouplingProfile",
    "DenseEigenResult",
    "FitParams",
    "ThresholdResult",
    "TimeWindow",
    "accuracy_threshold",
    "amplitude",
    "build_matrix",
    "decay_model",
    "dense_eigen",
    "dipolar_ratios",
    "eigenvalues",
    "error_map",
    "evolve",
    "expm_propagate",
    "fit_decay",
    "fit_trends",
    "independent_targets",
    "max_neighbors",
    "probability_map",
    "simpson_integral",
]
