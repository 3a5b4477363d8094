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
    cyclic_distance,
    dipolar_ratios,
    max_neighbors,
)
from .fitting import (
    FitParams,
    FitSeries,
    TrendReport,
    decay_model,
    fit_decay,
    fit_trends,
)
from .metrics import (
    ThresholdResult,
    TimeWindow,
    TransferMetrics,
    accuracy_threshold,
    avg_probability,
    error_map,
    independent_targets,
    mean_truncation_error,
    probability_map,
    transfer_metrics,
    trig_power_integral,
    truncation_error,
)
from .oracle import DenseEigenResult, dense_eigen, expm_propagate, simpson_integral
from .spectral import (
    Spectrum,
    amplitude,
    eigenvalues,
    eigenvectors,
    evolve,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "CouplingProfile",
    "DenseEigenResult",
    "FitParams",
    "FitSeries",
    "Spectrum",
    "ThresholdResult",
    "TimeWindow",
    "TransferMetrics",
    "TrendReport",
    "accuracy_threshold",
    "amplitude",
    "avg_probability",
    "build_matrix",
    "cyclic_distance",
    "decay_model",
    "dense_eigen",
    "dipolar_ratios",
    "eigenvalues",
    "eigenvectors",
    "error_map",
    "evolve",
    "expm_propagate",
    "fit_decay",
    "fit_trends",
    "independent_targets",
    "max_neighbors",
    "mean_truncation_error",
    "probability_map",
    "simpson_integral",
    "spectrum",
    "transfer_metrics",
    "trig_power_integral",
    "truncation_error",
]
