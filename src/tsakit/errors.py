"""Exception hierarchy shared by all toolkit modules, and the integer check,
with its lower bound, that integer parameters go through (``_as_index``)."""
import operator
from typing import Optional


class TsaError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(TsaError, ValueError):
    """An argument violates a documented precondition."""


def _as_index(value, name: str, minimum: Optional[int] = None) -> int:
    """``value`` as a Python int (numpy integers included; floats and bools
    not), at least ``minimum`` when one is given. Either failure raises
    ``InvalidArgumentError`` naming ``name``: "<name> must be an integer, got
    <value!r>" or "<name> must be >= <minimum>, got <value>"."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if minimum is not None and index < minimum:
                raise InvalidArgumentError(f"{name} must be >= {minimum}, got {index}")
            return index
    raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")


class InsufficientDataError(TsaError, ValueError):
    """The sample is too short for the requested computation."""


class ZeroVarianceError(TsaError, ValueError):
    """The input is constant where variation is required."""


class DegenerateFitError(TsaError, ArithmeticError):
    """An estimator broke down numerically (rank deficiency, |reflection| >= 1)."""


class ConvergenceError(TsaError, ArithmeticError):
    """An iterative routine reached its iteration limit without converging.

    ``iterations`` is the number of iterations run and ``residual`` the
    routine's measure of how far the last iterate is from a solution.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class NonStationaryModelError(TsaError, ValueError):
    """An operation that requires a stationary model received one with roots on
    or inside the unit circle."""


class IngestionError(TsaError, ValueError):
    """Base class for CSV ingestion failures. ``code`` identifies the condition."""

    code = "ingestion"


class MissingInputError(IngestionError):
    code = "missing_file"


class MalformedRowError(IngestionError):
    code = "malformed_row"

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MonthGapError(IngestionError):
    code = "month_gap"

    def __init__(self, missing_period: str):
        super().__init__(f"month gap in input: {missing_period} is missing")
        self.missing_period = missing_period


class DuplicateMonthError(IngestionError):
    code = "duplicate_month"

    def __init__(self, period: str):
        super().__init__(f"duplicate month in input: {period}")
        self.period = period


class PipelineStageError(TsaError, RuntimeError):
    """Wraps the underlying error of a failed analysis stage with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
