"""The one form of an exact scalar, shared by the tests of every module."""

from fractions import Fraction


def canonical(x):
    """Whether x is a Python int, or a Fraction of Python ints whose
    denominator is > 1: never a float, a bool, a numpy scalar or an
    integral Fraction."""
    return type(x) is int or (
        type(x) is Fraction and type(x.numerator) is int
        and type(x.denominator) is int and x.denominator > 1)
