"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class ParameterDomainError(SimulationError, ValueError):
    """An input parameter lies outside the domain an operation is defined on."""


class NormalizationError(SimulationError, ValueError):
    """A sampled wave-packet profile is not normalized to unity."""

    def __init__(self, message, measured_norm=None):
        super().__init__(message)
        self.measured_norm = measured_norm


class OverlapDomainError(SimulationError, ValueError):
    """A closed form restricted to fully overlapping packets was given partial
    overlap.  ``release_distribution`` handles the general case."""


class CapacityError(SimulationError, ValueError):
    """A requested construction exceeds a configured size limit.

    ``required`` carries the smallest limit that would admit the request,
    when that is known.
    """

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


class UndefinedRatioError(SimulationError, ZeroDivisionError):
    """A ratio such as variance over mean was requested at zero denominator."""


class InternalConsistencyError(SimulationError, RuntimeError):
    """A numerical invariant that should hold by construction was violated."""


class ExperimentConfigError(SimulationError, ValueError):
    """A command-line experiment description is incomplete or inconsistent."""
