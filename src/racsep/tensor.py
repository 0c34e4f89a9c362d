"""Dense tensors over a switchable scalar field, with matricization.

Two scalar fields are supported: IEEE double ("float") and exact rationals
("exact", in object arrays).  An exact scalar has one form, which
:func:`exact_array` gives it: a Python int when the value is an integer,
else a ``fractions.Fraction`` over Python ints with a denominator > 1.  A
tensor never mixes fields.  Entries are kept in row-major order (last index
fastest), so matricization w.r.t. an index partition reduces to an axis
permutation followed by a reshape.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, ShapeError

EXACT = "exact"
FLOAT = "float"


def exact_array(values, shape=None):
    """A new object ndarray of the exact scalars in nested ints, Fractions or
    "num/den" strings, each in its one form: a Python int if it is an
    integer, else a Fraction of Python ints; every array enters the exact
    field here.

    Numpy integers become Python ints, which do not wrap.
    """
    arr = np.array(values, dtype=object)
    flat = arr.reshape(-1)
    for i, v in enumerate(flat):
        if type(v) is not int:
            f = v if type(v) is Fraction else Fraction(v)
            n, d = f.numerator, f.denominator
            if d == 1 or type(n) is not int or type(d) is not int:
                f = int(n) if d == 1 else Fraction(int(n), int(d))
            flat[i] = f
    return flat.reshape(arr.shape if shape is None else shape)


def clear_denominators(values):
    """Python ints n_i and a common denominator d with values[i] == n_i / d.

    ``values`` holds ints or Fractions; d is the lcm of their denominators.
    """
    values = list(values)
    nums = [v.numerator for v in values]
    dens = [v.denominator for v in values]
    if set(map(type, nums + dens)) != {int}:  # numpy integers wrap around
        nums, dens = list(map(int, nums)), list(map(int, dens))
    den = math.lcm(*dens)
    if den == 1:  # integer entries, the common case
        return nums, den
    return [n * (den // d) for n, d in zip(nums, dens)], den


def field_of(array):
    return EXACT if array.dtype == object else FLOAT


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
    ``DenseTensor(ints, field)``.
    """

    __slots__ = ("data", "field")

    def __init__(self, data, field=None):
        data = np.atleast_1d(data)
        self.field = field_of(data) if field is None else check_field(field)
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


@dataclass(frozen=True)
class IndexPartition:
    """A split of the modes {1..T} into disjoint sorted groups S and E."""

    S: tuple
    E: tuple

    def __post_init__(self):
        s, e = tuple(sorted(self.S)), tuple(sorted(self.E))
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "E", e)
        if set(s) & set(e):
            raise ShapeError("S and E must be disjoint")
        T = len(s) + len(e)
        if set(s) | set(e) != set(range(1, T + 1)):
            raise ShapeError("S and E must cover {1..T} exactly")

    @classmethod
    def start_end(cls, T):
        """The canonical first-half/second-half split; T must be even."""
        if T % 2 != 0:
            raise ShapeError(f"start-end partition needs even T, got {T}")
        return cls(tuple(range(1, T // 2 + 1)), tuple(range(T // 2 + 1, T + 1)))

    @property
    def order(self):
        return len(self.S) + len(self.E)


def matricize(t: DenseTensor, p: IndexPartition) -> DenseTensor:
    """Rearrange an order-T tensor as an M^|S| x M^|E| matrix.

    Entry (d_1..d_T) lands in row 1 + sum_t (d_{i_t}-1) M^(|S|-t) and the
    analogous column over E.  All modes must share one dimension M.
    """
    if p.order != t.order:
        raise ShapeError(f"partition covers {p.order} modes, tensor has {t.order}")
    dims = set(t.dims)
    if len(dims) != 1:
        raise ShapeError(f"matricize requires equal mode dims, got {t.dims}")
    M = dims.pop()
    axes = [i - 1 for i in p.S] + [i - 1 for i in p.E]
    arr = np.transpose(t.data, axes).reshape(M ** len(p.S), M ** len(p.E))
    return DenseTensor(arr, t.field)


def hadamard_power(m: DenseTensor, p: int) -> DenseTensor:
    """Raise every entry to the integer power p, shape preserved."""
    if not isinstance(p, numbers.Integral) or p < 1:
        raise InvalidInputError(f"power must be a positive integer, got {p}")
    return DenseTensor(m.data ** int(p), m.field)


# ---------------------------------------------------------------------------
# Portable text format, shared by tensor, parameter and graph files: a tag
# line, "key value..." header lines, and scalars written as "num/den"
# (exact) or shortest round-trip scientific notation (float).

FORMAT_TAG = "racsep-tensor v1"


def format_scalars(values, field):
    """The text form of every scalar in ``values``, in order."""
    if field == EXACT:
        return [f"{v.numerator}/{v.denominator}" for v in values]
    return [np.format_float_scientific(v, unique=True) for v in values]


def dump_tensor(t: DenseTensor) -> str:
    lines = [FORMAT_TAG, f"order {t.order}", "dims " + " ".join(map(str, t.dims)),
             f"field {t.field}"]
    return "\n".join(lines + format_scalars(t.entries, t.field)) + "\n"


def header_words(lines, pos, key, count=None):
    """The words after ``key`` on lines[pos] of a text file (exactly
    ``count`` of them when given)."""
    words = lines[pos].split() if pos < len(lines) else []
    if not words or words[0] != key or (
            count is not None and len(words) != count + 1):
        got = repr(lines[pos]) if pos < len(lines) else "end of file"
        raise InvalidInputError(f"expected a {key!r} line, got {got}")
    return words[1:]


def header_ints(words):
    """Non-negative integers from header words."""
    if not all(w.isdecimal() for w in words):
        raise InvalidInputError(
            f"expected non-negative integers, got {' '.join(words)!r}")
    return tuple(int(w) for w in words)


def header_field(lines, pos):
    """The scalar field named on the ``field`` line lines[pos]."""
    (field,) = header_words(lines, pos, "field", 1)
    return check_field(field)


def parse_scalars(raw, field, shape):
    """One block of text entries as an array of the field shaped ``shape``:
    ``num/den`` entries through :func:`exact_array`, or finite float64
    values."""
    if not all(shape):
        raise InvalidInputError(f"all dims must be >= 1, got {shape}")
    if len(raw) != math.prod(shape):
        raise InvalidInputError(f"a block of shape {shape} needs "
                                f"{math.prod(shape)} entries, got {len(raw)}")
    try:
        if field == EXACT:
            return exact_array(raw, shape)
        arr = np.array([float(s) for s in raw], dtype=np.float64)
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidInputError(f"bad {field} entry: {e}") from None
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("float entries must be finite")
    return arr.reshape(shape)


def parse_tensor(text: str) -> DenseTensor:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != FORMAT_TAG:
        raise InvalidInputError("not a tensor file (bad header)")
    (order,) = header_ints(header_words(lines, 1, "order", 1))
    dims = header_ints(header_words(lines, 2, "dims"))
    if len(dims) != order:
        raise InvalidInputError("dims line does not match order")
    field = header_field(lines, 3)
    return DenseTensor(parse_scalars(lines[4:], field, dims), field)


def save_tensor(t: DenseTensor, path):
    with open(path, "w") as fh:
        fh.write(dump_tensor(t))


def load_tensor(path) -> DenseTensor:
    with open(path) as fh:
        return parse_tensor(fh.read())
