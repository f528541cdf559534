"""Exception hierarchy shared by all multilambda modules.

Two umbrella categories matter for the command line tool: configuration
problems (exit code 2) and numerical failures (exit code 3).  Everything
else is a domain error raised when an operation is asked for a quantity
that does not exist for the given system (for example detuning sums of a
resonant system).
"""


class MultiLambdaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MultiLambdaError):
    """Base class for configuration file problems."""


class ParseError(ConfigError):
    """Config text could not be parsed.  Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, source: str = "<config>"):
        self.line = line
        self.source = source
        where = f"{source}:{line}: " if line is not None else f"{source}: "
        super().__init__(where + message)


class ValidationError(ConfigError):
    """Config parsed fine but violates an invariant of the run description."""


class NumericalError(MultiLambdaError):
    """Base class for failures of the numerical machinery.

    ``point`` is the position of the failing point when a batched call
    raised the error, else None.
    """

    point: int | None = None


class ToleranceNotMet(NumericalError):
    """The adaptive step controller could not satisfy the error tolerances."""


class NormDriftExceeded(NumericalError):
    """State norm drifted away from 1 by more than the accepted budget."""


class AmbiguousTracking(NumericalError):
    """Eigenvector continuation found no overlap above the safety threshold."""


class ZeroDetuningInSum(MultiLambdaError):
    """A detuning sum was requested while a contributing detuning is exactly zero."""


class BothEnvelopesZero(MultiLambdaError):
    """Pump and Stokes envelopes are both zero, so the requested state is undefined."""


class NonSymmetricInput(MultiLambdaError):
    """The eigensolver only accepts real symmetric matrices."""


class DegenerateSums(MultiLambdaError):
    """An asymptotic formula needs a detuning sum that vanishes."""


class NotSingleResonance(MultiLambdaError):
    """The operation needs exactly one zero detuning at the given index."""


class WrongResonanceCount(MultiLambdaError):
    """The operation does not support this number of zero detunings."""


class NotProportional(MultiLambdaError):
    """Coupling ratios differ where proportionality is required."""


class NoCrossing(MultiLambdaError):
    """No level crossing exists, so the crossing-based estimate is undefined."""


class PreconditionViolated(MultiLambdaError):
    """Inputs are outside the validity domain of the requested formula."""
