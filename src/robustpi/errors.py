"""Error taxonomy shared by all modules.

Category strings are part of the public contract: the CLI maps them to
stable exit codes and the run log records them verbatim.
"""


class ToolkitError(Exception):
    """Base class; `category` is a stable machine-readable string."""

    category = "Internal"


class StateDivergence(ToolkitError):
    """A simulated state left the blow-up bound (closed loop unstable)."""

    category = "StateDivergence"


class NonFiniteDynamics(ToolkitError):
    """A model callback returned NaN or infinity."""

    category = "NonFiniteDynamics"


class DimensionMismatch(ToolkitError):
    category = "DimensionMismatch"


class RankDeficient(ToolkitError):
    """Collocation/projection matrix numerically rank deficient."""

    category = "RankDeficient"


class InadmissiblePolicy(ToolkitError):
    """A probe simulation under a candidate policy diverged."""

    category = "InadmissiblePolicy"


class PEViolation(ToolkitError):
    """Persistent-excitation check failed: regression data too poor."""

    category = "PEViolation"


class EmptyInterval(ToolkitError):
    """A sampling interval is not a positive whole number of integration steps."""

    category = "EmptyInterval"


class CompositionDomain(ToolkitError):
    """A gain-function inverse was requested outside the covered range."""

    category = "CompositionDomain"


class ScheduleExhausted(ToolkitError):
    """No basis-schedule entry met the residual threshold.

    `best` carries the best result achieved, for reporting.
    """

    category = "ScheduleExhausted"

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConfigParse(ToolkitError):
    category = "ConfigParse"


EXIT_CODES = {
    "ConfigParse": 2,
    "PEViolation": 3,
    "StateDivergence": 4,
    "RankDeficient": 5,
    "InadmissiblePolicy": 6,
    "ScheduleExhausted": 7,
    "NonFiniteDynamics": 8,
    "CompositionDomain": 9,
    "EmptyInterval": 10,
    "DimensionMismatch": 11,
    "Internal": 1,
}
