"""Exception types shared across the package, and the rule for numbers read from JSON."""

import numbers
import sys


class StgfError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(StgfError, ValueError):
    """Operand shapes violate an operation's contract."""


class ValidationError(StgfError, ValueError):
    """Input data or configuration violates a documented invariant."""


class LoadError(ValidationError):
    """A dataset or checkpoint on disk is missing, truncated, or inconsistent."""


class UsageError(StgfError):
    """Bad command-line flags, config keys, or argument combinations."""


class ContractError(StgfError, RuntimeError):
    """A caller-supplied callable or argument broke an API contract."""


class NumericalError(StgfError, RuntimeError):
    """A non-finite value appeared where the computation requires finite ones."""


def _json_number(name: str, value, least: int | None = None):
    """``value`` as the number ``name`` read from JSON or a config: with
    ``least``, an int >= ``least`` (a float, even ``2.0``, is refused);
    otherwise a finite int or float. A bool or a string is refused."""
    if least is None:
        # the bound is false for NaN, an infinity and an int past the float range
        finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
        if isinstance(value, bool) or not finite:
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}, got {value}")
    return int(value)
