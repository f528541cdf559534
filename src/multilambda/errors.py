"""Exception hierarchy shared by all multilambda modules.

There is one family per way a caller handles a failure.  ConfigError means
the run description is wrong, whether its text does not parse or a value is
refused: fix the input (exit code 2 at the command line).  NumericalError
means the machinery failed on valid input: change a tolerance or the grid
(exit code 3).  PreconditionViolated means a formula
was asked for outside the domain where it holds, for example a dark state
of non-proportional couplings or detuning sums of a resonant system; its
message names the condition.  Its one subclass, NoCrossing, is the refusal
of the crossing-based estimate, which a scan reports as a reason instead.
"""

__all__ = [
    "MultiLambdaError",
    "ConfigError",
    "NumericalError",
    "ToleranceNotMet",
    "NormDriftExceeded",
    "AmbiguousTracking",
    "PreconditionViolated",
    "NoCrossing",
]


class MultiLambdaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MultiLambdaError):
    """The run description is wrong: text that does not parse, with its
    ``<source>:<line>: `` prefix, a missing key, a refused value, an unknown
    preset, or a file that cannot be read or written."""


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


class PreconditionViolated(MultiLambdaError):
    """Inputs are outside the validity domain of the requested formula."""


class NoCrossing(PreconditionViolated):
    """No level crossing exists, so the crossing-based estimate is undefined."""
