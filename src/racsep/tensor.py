"""Dense tensors over a switchable scalar field, with start/end matricization.

Two scalar fields are supported: IEEE double ("float") and exact rationals
("exact", in object arrays).  An exact scalar has one form, which
:func:`exact_array` gives it: a Python int when the value is an integer,
else a ``fractions.Fraction`` over Python ints with a denominator > 1; and
:func:`split_denominator` writes an array as integers over one
denominator for the integer walks of the builders, ranks and tn modules.
A tensor never mixes fields.  Entries are kept in row-major order (last index
fastest), so the start/end matricization, which splits the T modes into the
first and the last T/2, is a reshape.

Tensors, parameter files and graphs share one portable text format, written
by ``dump_*`` functions and read by one :class:`TextReader`.  The functions
here turn text into objects and back; only the command line reads or writes
files.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .errors import (FieldMismatchError, InvalidInputError, ShapeError,
                     is_integer)

EXACT = "exact"
FLOAT = "float"


def exact_array(values, shape=None):
    """A new object ndarray of the exact scalars in nested ints, Fractions or
    "num/den" strings, each in its one form: a Python int if it is an
    integer, else a Fraction of Python ints; every array enters the exact
    field here.

    Numpy integers become Python ints, which do not wrap.  An entry that is
    not a rational number (NaN, inf, None, "x", "1/0") raises
    InvalidInputError naming it.
    """
    arr = np.array(values, dtype=object)
    flat = arr.reshape(-1)
    try:
        for i, v in enumerate(flat):
            if type(v) is not int:
                f = v if type(v) is Fraction else Fraction(v)
                n, d = f.numerator, f.denominator
                if d == 1 or type(n) is not int or type(d) is not int:
                    f = int(n) if d == 1 else Fraction(int(n), int(d))
                flat[i] = f
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as e:
        raise InvalidInputError(
            f"exact entry {v!r} is not a rational number: {e}") from None
    return flat.reshape(arr.shape if shape is None else shape)


def split_denominator(a):
    """(n, d) with a == n / d entrywise.  For an exact (object) array, n is
    an object array of Python ints (numpy integers widened, so they do not
    wrap) and d the lcm of the entries' denominators; an entry that is not
    an int or a Fraction raises FieldMismatchError.  Any other array is
    float: n is ``a`` as float64, and d is 1."""
    if a.dtype != object:
        return np.asarray(a, dtype=np.float64), 1
    values = a.ravel().tolist()
    try:
        nums = [v.numerator for v in values]
        dens = [v.denominator for v in values]
    except AttributeError:
        raise FieldMismatchError(
            "exact arithmetic requires int or Fraction entries") from None
    if set(map(type, nums + dens)) != {int}:  # numpy integers wrap around
        nums, dens = list(map(int, nums)), list(map(int, dens))
    d = math.lcm(*dens)
    if d != 1:  # d is 1 for integer entries, the common case
        nums = [n * (d // e) for n, e in zip(nums, dens)]
    return np.array(nums, dtype=object).reshape(a.shape), d


def field_of(array):
    return EXACT if array.dtype == object else FLOAT


def is_real(array):
    """Whether ``array`` holds exact or real entries: not text or complex."""
    return array.dtype.kind in "biufO"


def check_field(field):
    """``field``, if it names a scalar field; else InvalidInputError."""
    if field not in (EXACT, FLOAT):
        raise InvalidInputError(
            f"field must be {EXACT!r} or {FLOAT!r}, got {field!r}")
    return field


class DenseTensor:
    """An order-T multi-dimensional array over a single scalar field.

    ``data`` is a numpy array shaped ``dims``; dtype float64 for the float
    field, object for the exact field, whose entries :func:`exact_array`
    puts in their one form.  An integer array enters either field here:
    ``DenseTensor(ints, field)``; float data of another kind (text,
    complex) raises InvalidInputError.
    """

    __slots__ = ("data", "field")

    def __init__(self, data, field=None):
        data = np.atleast_1d(data)
        self.field = field_of(data) if field is None else check_field(field)
        if self.field != EXACT and not is_real(data):
            raise InvalidInputError(
                f"float entries must be real numbers, got dtype {data.dtype}")
        self.data = (exact_array(data) if self.field == EXACT
                     else data.astype(np.float64, copy=False))

    @property
    def dims(self):
        return self.data.shape

    @property
    def order(self):
        return self.data.ndim

    @property
    def entries(self):
        """Flat row-major view of the entries."""
        return self.data.reshape(-1)

    def __getitem__(self, idx):
        return self.data[idx]

    def equals(self, other):
        if self.field != other.field or self.dims != other.dims:
            return False
        return bool(np.all(self.data == other.data))

    def __repr__(self):
        return f"DenseTensor(dims={self.dims}, field={self.field!r})"


def matricize(t: DenseTensor) -> DenseTensor:
    """The M^(T/2) x M^(T/2) start/end matricization of an order-T tensor
    (T even, every mode of dimension M): entry (d_1..d_T) lands in row
    1 + sum_{t<=T/2} (d_t-1) M^(T/2-t) and the analogous column over the end
    modes.  Row-major order already puts the start modes in the row.
    """
    if t.order % 2:
        raise ShapeError(f"matricize needs an even order, got {t.order}")
    dims = set(t.dims)
    if len(dims) != 1:
        raise ShapeError(f"matricize requires equal mode dims, got {t.dims}")
    width = dims.pop() ** (t.order // 2)
    return DenseTensor(t.data.reshape(width, width), t.field)


def hadamard_power(m: DenseTensor, p: int) -> DenseTensor:
    """Raise every entry to the integer power p, shape preserved."""
    if not is_integer(p) or p < 1:
        raise InvalidInputError(f"power must be a positive integer, got {p}")
    return DenseTensor(m.data ** int(p), m.field)


# ---------------------------------------------------------------------------
# Portable text format, shared by tensor, parameter and graph files: a tag
# line, "key value..." header lines, and scalars written as "num/den"
# (exact) or shortest round-trip scientific notation (float).

FORMAT_TAG = "racsep-tensor v1"


def format_scalars(values, field):
    """The text form of every scalar in ``values``, in order.  A float entry
    that is not finite raises InvalidInputError, as the readers refuse it."""
    if field == EXACT:
        return [f"{v.numerator}/{v.denominator}" for v in values]
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("float entries must be finite")
    return [np.format_float_scientific(v, unique=True) for v in values]


def dump_tensor(t: DenseTensor) -> str:
    """The text form of t; InvalidInputError on a zero dim, as on reading."""
    if not all(t.dims):
        raise InvalidInputError(f"all dims must be >= 1, got {t.dims}")
    lines = [FORMAT_TAG, f"order {t.order}", "dims " + " ".join(map(str, t.dims)),
             f"field {t.field}"]
    return "\n".join(lines + format_scalars(t.entries, t.field)) + "\n"


class TextReader:
    """One pass over a text file: the ``tag`` line, then ``key value...``
    header lines and blocks of scalars, in file order.  A missing, extra or
    malformed line raises InvalidInputError; ``kind`` names the file."""

    def __init__(self, text, tag, kind):
        self._lines = iter(text.strip().splitlines())
        if next(self._lines, "").strip() != tag:
            raise InvalidInputError(f"not a {kind} file (bad header)")

    def words(self, key, count=None):
        """The words after ``key`` on the next line (exactly ``count`` of them
        when given)."""
        line = next(self._lines, None)
        words = (line or "").split()
        if not words or words[0] != key or (
                count is not None and len(words) != count + 1):
            got = "end of file" if line is None else repr(line)
            raise InvalidInputError(f"expected a {key!r} line, got {got}")
        return words[1:]

    def field(self):
        """The scalar field named on the next line; later blocks hold it."""
        (field,) = self.words("field", 1)
        self._field = check_field(field)
        return self._field

    def line(self):
        """The next line, or "" at the end of the text."""
        return next(self._lines, "")

    def block(self, shape, line=None):
        """The next block of entries as an array of the field shaped
        ``shape``: one entry per line, or all of them on ``line``, one line
        already read by :meth:`line`: ``num/den`` entries through
        :func:`exact_array`, or finite float64 values."""
        if not all(shape):
            raise InvalidInputError(f"all dims must be >= 1, got {shape}")
        n = math.prod(shape)
        raw = (line.split() if line is not None
               else list(itertools.islice(self._lines, n)))
        if len(raw) != n:
            raise InvalidInputError(
                f"a block of shape {shape} needs {n} entries, got {len(raw)}")
        if self._field == EXACT:
            return exact_array(raw, shape)
        try:
            arr = np.array([float(s) for s in raw], dtype=np.float64)
        except ValueError as e:
            raise InvalidInputError(f"bad {self._field} entry: {e}") from None
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("float entries must be finite")
        return arr.reshape(shape)

    def end(self, after):
        """InvalidInputError unless every line has been read; ``after``
        names what was read last."""
        line = next(self._lines, None)
        if line is not None:
            raise InvalidInputError(f"unexpected line after {after}: {line!r}")


def header_ints(words):
    """Non-negative integers from header words."""
    if not all(map(str.isdecimal, words)):
        raise InvalidInputError(
            f"expected non-negative integers, got {' '.join(words)!r}")
    return tuple(map(int, words))


def parse_tensor(text: str) -> DenseTensor:
    r = TextReader(text, FORMAT_TAG, "tensor")
    (order,) = header_ints(r.words("order", 1))
    if order == 0:
        raise InvalidInputError("a tensor has order >= 1, got order 0")
    dims = header_ints(r.words("dims"))
    if len(dims) != order:
        raise InvalidInputError("dims line does not match order")
    field = r.field()
    data = r.block(dims)
    r.end("the entries")
    return DenseTensor(data, field)
