"""Interference of stored light pulses released from a multi-level atomic memory.

The package models a memory that stores two light pulses as collective spin
excitations and releases them in two stages.  The storage and release settings
act on the two excitation channels like a beam splitter, so photon-count
statistics, quadrature variances and homodyne signals can all be driven by the
stage angles.  Closed-form predictions come with brute-force oracles, kept in
their own module, so every formula can be cross-checked numerically.
"""

from .errors import (
    CapacityError,
    ExperimentConfigError,
    InternalConsistencyError,
    NormalizationError,
    ParameterDomainError,
    SimulationError,
    UndefinedRatioError,
)
from .fock_interference import (
    FockInput,
    ReleaseDistribution,
    fano_factor,
    mean_release_count,
    release_distribution,
    release_variance,
)
from .gaussian_states import (
    QuadratureStats,
    SqueezedInput,
    released_quadratures,
    uncertainty_product,
)
from .homodyne import (
    PROBE_CLASSICAL,
    PROBE_QUANTUM,
    HomodyneConfig,
    balanced_variance,
    general_variance,
)
from .mode_transform import (
    GramMatrix,
    StageAngles,
    TransferMatrix,
    build_transfer_matrix,
    global_phase_distance,
    gram_from_packets,
    magnetic_phase_matrix,
)
from .oracles import (
    ModeBasis,
    OccupationBasis,
    TruncatedState,
    build_fock_input,
    gaussian_oracle,
    homodyne_oracle,
    oracle_distribution,
    oracle_moments,
    released_number_operator,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ExperimentConfigError",
    "FockInput",
    "GramMatrix",
    "HomodyneConfig",
    "InternalConsistencyError",
    "ModeBasis",
    "NormalizationError",
    "OccupationBasis",
    "PROBE_CLASSICAL",
    "PROBE_QUANTUM",
    "ParameterDomainError",
    "QuadratureStats",
    "ReleaseDistribution",
    "SimulationError",
    "SqueezedInput",
    "StageAngles",
    "TransferMatrix",
    "TruncatedState",
    "UndefinedRatioError",
    "balanced_variance",
    "build_fock_input",
    "build_transfer_matrix",
    "fano_factor",
    "gaussian_oracle",
    "general_variance",
    "global_phase_distance",
    "gram_from_packets",
    "homodyne_oracle",
    "magnetic_phase_matrix",
    "mean_release_count",
    "oracle_distribution",
    "oracle_moments",
    "release_distribution",
    "release_variance",
    "released_number_operator",
    "released_quadratures",
    "uncertainty_product",
]
