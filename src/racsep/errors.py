"""Exception types shared across the toolkit, size budgets and counts."""

import numbers
import os


class RacsepError(Exception):
    """Base class for all toolkit errors."""


class FieldMismatchError(RacsepError):
    """Operands live in different scalar fields (exact vs float)."""


class ShapeError(RacsepError):
    """Tensor or matrix shape not supported by the requested operation."""


class ParameterError(RacsepError):
    """Network parameters are malformed or unsupported (e.g. singular W_h)."""


class InvalidInputError(RacsepError):
    """Input values are invalid (NaN/Inf entries, out-of-range symbols)."""


class ResourceBudgetError(RacsepError):
    """An operation would exceed its configured size budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


def is_integer(x):
    """Whether ``x`` is an integer (Python or numpy); a bool is not."""
    # a plain int first: the ABC check is slow, and graphs check every leg
    return type(x) is int or (
        type(x) is not bool and isinstance(x, numbers.Integral))


def check_count(name, value, least):
    """Raises InvalidInputError unless ``value`` is an integer >= ``least``."""
    if not is_integer(value):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")


def env_budget(name, default):
    """The entry budget in environment variable ``name``, ``default`` if it
    is unset; InvalidInputError unless it is a non-negative integer."""
    text = os.environ.get(name, str(default))
    if not text.strip().isdecimal():
        raise InvalidInputError(
            f"{name} must be a non-negative integer, got {text!r}")
    return int(text)


def check_budget(what, required, budget):
    """Raises ResourceBudgetError if ``what`` needs more than ``budget``
    entries."""
    if required > budget:
        raise ResourceBudgetError(
            f"{what} needs {required} entries, budget is {budget}",
            required=required, budget=budget)
