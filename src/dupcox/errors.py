"""Exception hierarchy shared across the package.

``DataError`` subclasses signal problems with the input cohort, ``ConfigError``
signals a bad run configuration, and ``EstimationError`` subclasses signal
numerical problems during fitting or testing.
"""

import numbers


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer (Python's or numpy's); a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether ``value`` is a real number that a float can hold (Python's or
    numpy's integers and floats, a ``Fraction``); a bool, a string, a
    ``Decimal`` and an integer past float range (``10**400``) are not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


class DupcoxError(Exception):
    """Base class for all package errors."""


class ConfigError(DupcoxError):
    """Invalid run configuration (bad keys, bad values, impossible spec)."""


class DataError(DupcoxError):
    """Base class for problems with the input data."""


class SchemaError(DataError):
    """A declared column is missing or the schema itself is malformed."""


class ParseError(DataError):
    """A cell could not be parsed; carries the offending row and column."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class ValidationError(DataError):
    """A cohort's row or column violates a structural invariant (e.g. entry >= exit)."""


class EstimationError(DupcoxError):
    """Base class for numerical failures during estimation or testing."""


class SingularMatrixError(EstimationError):
    """A matrix that must be inverted is singular; carries the condition number."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


class AliasedCoefficientError(EstimationError):
    """A coefficient required by a test was dropped for collinearity."""


def _names(values, what: str, error=ConfigError) -> tuple:
    """``values`` as a tuple of names.  A bare string, which would be read as
    its characters, or a set, whose order its hashing sets, raises ``error``
    naming ``what``."""
    if isinstance(values, (str, bytes, set, frozenset)):
        raise error(f"{what} must be a sequence of names, got {values!r}")
    return tuple(values)
