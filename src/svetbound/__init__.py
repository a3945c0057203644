"""Singular-value bounds and local-filtering activation for the Svetlichny inequality."""

from .analysis import certify_filtered, certify_unfiltered
from .errors import (
    ConsistencyError,
    FilterAnnihilationError,
    NonMonotonePredicateError,
    PhysicalityError,
    StateFormatError,
)
from .filtering import (
    FilteredAnalysis,
    FilterParams,
    FilterTriple,
    apply_filter,
    filtered_bound,
    x_matrix,
)
from .linalg import SVDResult, lorentz_map, pauli, pauli_moments, svd_3x9, tensor
from .scan import (
    ActivationReport,
    PointRecord,
    ScanSpec,
    build_family_state,
    figure_data,
    optimize_filter,
    threshold_bisect,
    write_csv,
    write_json,
)
from .seesaw import OracleConfig, OracleResult, seesaw_max
from .states import (
    build_chi_state,
    build_ghz_noise_state,
    load_state,
    save_state,
    validate_state,
)
from .svetlichny import (
    ALGEBRAIC_MAX,
    SVETLICHNY_BOUND,
    BoundReport,
    CorrelationMatrix,
    MeasurementSettings,
    correlation_matrix,
    svetlichny_operator,
    svetlichny_value,
    unfiltered_bound,
)
from .tightness import DecompositionResult, assemble_settings, check_tightness

__version__ = "0.1.0"

__all__ = [
    "ALGEBRAIC_MAX",
    "SVETLICHNY_BOUND",
    "ActivationReport",
    "BoundReport",
    "ConsistencyError",
    "CorrelationMatrix",
    "DecompositionResult",
    "FilterAnnihilationError",
    "FilterParams",
    "FilterTriple",
    "FilteredAnalysis",
    "MeasurementSettings",
    "NonMonotonePredicateError",
    "OracleConfig",
    "OracleResult",
    "PhysicalityError",
    "PointRecord",
    "SVDResult",
    "ScanSpec",
    "StateFormatError",
    "apply_filter",
    "assemble_settings",
    "build_chi_state",
    "build_family_state",
    "build_ghz_noise_state",
    "certify_filtered",
    "certify_unfiltered",
    "check_tightness",
    "correlation_matrix",
    "figure_data",
    "filtered_bound",
    "load_state",
    "lorentz_map",
    "optimize_filter",
    "pauli",
    "pauli_moments",
    "save_state",
    "seesaw_max",
    "svd_3x9",
    "svetlichny_operator",
    "svetlichny_value",
    "tensor",
    "threshold_bisect",
    "unfiltered_bound",
    "validate_state",
    "write_csv",
    "write_json",
    "x_matrix",
]
