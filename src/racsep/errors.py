"""Exception types, counts and the one entry budget of the toolkit."""

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


GRID_BUDGET_ENV = "RACSEP_GRID_BUDGET"
DEFAULT_GRID_BUDGET = 10 ** 7


def grid_budget():
    """The entry budget in RACSEP_GRID_BUDGET, 10^7 if it is unset;
    InvalidInputError unless it is a non-negative integer."""
    text = os.environ.get(GRID_BUDGET_ENV, str(DEFAULT_GRID_BUDGET))
    if not text.strip().isdecimal():
        raise InvalidInputError(
            f"{GRID_BUDGET_ENV} must be a non-negative integer, got {text!r}")
    return int(text)


def check_budget(what, required, budget):
    """Raises ResourceBudgetError if ``what`` needs more than ``budget``
    entries."""
    if required > budget:
        raise ResourceBudgetError(
            f"{what} needs {required} entries, budget is {budget}",
            required=required, budget=budget)
