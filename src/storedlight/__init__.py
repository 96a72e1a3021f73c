"""Interference of stored light pulses released from a multi-level atomic memory.

The package models a memory that stores two light pulses as collective spin
excitations and releases them in two stages.  The storage and release settings
act on the two excitation channels like a beam splitter, so photon-count
statistics, quadrature variances and homodyne signals can all be driven by the
stage angles.  Closed-form predictions live next to brute-force oracles in a
truncated number basis so every formula can be cross-checked numerically.
"""

from .errors import (
    CapacityError,
    ExperimentConfigError,
    InternalConsistencyError,
    NormalizationError,
    OverlapDomainError,
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
    release_distribution_unit_overlap,
    release_variance,
)
from .gaussian_states import (
    QuadratureStats,
    SqueezedInput,
    gaussian_oracle,
    released_quadratures,
    uncertainty_product,
)
from .homodyne import (
    PROBE_CLASSICAL,
    PROBE_QUANTUM,
    HomodyneConfig,
    balanced_variance,
    general_variance,
    homodyne_oracle,
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

__version__ = "0.1.0"

# The Fock oracle needs scipy.sparse, which costs more to import than the rest
# of the package together; its names are loaded on first access only.
_FOCK_ORACLE_NAMES = frozenset({
    "ModeBasis",
    "OccupationBasis",
    "TruncatedState",
    "build_fock_input",
    "oracle_distribution",
    "oracle_moments",
    "released_number_operator",
})


def __getattr__(name):
    if name in _FOCK_ORACLE_NAMES:
        from . import fock_oracle

        return getattr(fock_oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "OverlapDomainError",
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
    "release_distribution_unit_overlap",
    "release_variance",
    "released_number_operator",
    "released_quadratures",
    "uncertainty_product",
]
