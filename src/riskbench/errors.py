"""Exception hierarchy.

The CLI maps these onto exit codes: configuration/usage problems -> 1,
data problems -> 2, numeric and calibration problems -> 3.
"""


class RiskbenchError(Exception):
    """Base class for all library errors."""


class ConfigError(RiskbenchError):
    """Unknown method tag, invalid measure, or inconsistent configuration."""


class DomainError(RiskbenchError, ValueError):
    """A parameter is outside its mathematical domain."""


class SizeError(RiskbenchError, ValueError):
    """Sample too short (or empty) for the requested operation."""


class DataError(RiskbenchError, ValueError):
    """Input data violates a contract (non-finite values, degenerate spread)."""


class TailError(RiskbenchError):
    """Base class for tail-model (GPD / empirical tail) failures."""


class InsufficientTailError(TailError):
    """Fewer than the required number of observations below the threshold."""


class DegenerateFitError(TailError):
    """PWM moments collapse (b0 - 2*b1 <= 0); no GPD fit exists."""


class LevelTooHighError(TailError):
    """Requested level lies above the empirical mass under the threshold."""


class InfiniteMeanTailError(TailError):
    """Fitted shape >= 1: the GPD tail has no finite mean."""


class EmptyTailError(TailError):
    """No observation exceeds the estimated Value-at-Risk."""


class CalibrationError(RiskbenchError):
    """Base class for calibration problems."""


class CalibrationFailureError(CalibrationError):
    """The pivotal condition has no positive root, or its root could not be bracketed."""


class IngestionError(RiskbenchError):
    """CSV ingestion failed; the message itemises the offending rows."""


class OutputError(RiskbenchError):
    """Writing a report or table to disk failed."""
