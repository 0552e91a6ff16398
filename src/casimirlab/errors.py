"""Exception hierarchy shared by the simulator, the analysis pipeline and the CLI.

The CLI maps these onto process exit codes: config errors exit with 2,
data errors with 3 and numerical failures with 4.
"""


class CasimirLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CasimirLabError):
    """Invalid configuration file, parameter set or command invocation."""


class DataError(CasimirLabError):
    """Input data violates a pipeline precondition."""


class IncompleteTransition(DataError):
    """A sweep does not span the full resistive transition."""


class NonMonotonic(DataError):
    """Monotonization had to move too many points; trace is not invertible."""


class InsufficientData(DataError):
    """Too few points or estimates for the requested operation."""


class IncompleteTriplet(DataError):
    """A (zero-field, field, zero-field) sweep trio is missing members."""


class NumericalError(CasimirLabError):
    """A numerical procedure failed to produce a usable result."""


class SingularFit(NumericalError):
    """The least-squares design matrix is rank deficient."""


class NonFiniteResult(NumericalError, ValueError):
    """An analysis record would hold a NaN or infinite number."""
