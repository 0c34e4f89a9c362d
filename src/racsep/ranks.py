"""Matrix rank oracles: exact fraction-free elimination and SVD-based.

The exact oracle first clears the matrix of denominators (one common
denominator), divides every row by its content (the gcd of its entries) and
drops repeated and zero rows, which changes no rank.  It then tries a
certificate: row-echelon elimination modulo the prime 2147483629 over the
shorter side (rows, or columns when there are more rows than columns).  If
every vector stays independent mod p, the rank is min(rows, columns),
exactly, since a minor that is nonzero mod p is a nonzero integer.  The
attempt stops at the first vector that reduces to zero mod p, and then
Bareiss (division-deferred) elimination with full pivoting over
arbitrary-precision integers gives the rank, so rationals with wildly
different magnitudes (entries spanning thousands of binary digits) are
handled without loss.  Each Bareiss pivot is the trailing entry of fewest
bits (the first in row-major order on a tie), which keeps the cross
products small.  The same Bareiss elimination solves square exact systems
(:func:`solve_exact`), such as the neutral initial state W_h h0 = 1, and
picks a column basis (:func:`column_basis`, its pivot columns), from which
the builders compute a single-layer start/end rank through the
mid-sequence states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (FieldMismatchError, InvalidInputError, ParameterError,
                     ShapeError)
from .tensor import (EXACT, DenseTensor, IndexPartition, clear_denominators,
                     exact_array, field_of, matricize)

DEFAULT_REL_TOL = 1e-12
# the word-size prime of the full-rank certificate, just under 2^31
_PRIME = 2147483629


@dataclass(frozen=True)
class RankReport:
    rank: int
    method: str  # "exact" | "svd"
    singular_values: tuple = field(default=())
    tolerance: float = 0.0


def _as_matrix(m):
    """A DenseTensor's or array's entries as a matrix, and their field."""
    arr = m.data if isinstance(m, DenseTensor) else np.asarray(m)
    if arr.ndim != 2:
        raise ShapeError(f"rank expects a matrix, got order {arr.ndim}")
    return arr, field_of(arr)


def rank_exact(m) -> RankReport:
    """Exact rank: full rank certified modulo a prime, else fraction-free
    Gaussian elimination with full pivoting."""
    arr, fld = _as_matrix(m)
    if fld != EXACT:
        raise FieldMismatchError("rank_exact requires the exact scalar field")
    ncols = arr.shape[1]
    rows = _primitive_rows(arr.reshape(-1), ncols)
    if _full_rank_mod_p(rows, ncols):
        rank = min(len(rows), ncols)
    else:
        rank, _ = _bareiss(rows, ncols)
    return RankReport(rank=rank, method="exact")


def column_basis(m) -> list:
    """Indices, ascending, of r = rank(m) columns of the exact matrix ``m``
    that span its column space: Bareiss's pivot columns.  Scaling, dropping
    and reordering rows keeps every column dependency, so the primitive rows
    give the same columns."""
    arr, fld = _as_matrix(m)
    if fld != EXACT:
        raise FieldMismatchError("column_basis requires the exact scalar field")
    ncols = arr.shape[1]
    rank, order = _bareiss(_primitive_rows(arr.reshape(-1), ncols), ncols)
    return sorted(order[:rank])


def solve_exact(a, b):
    """The x with a x = b over the rationals, for square exact ``a``, as an
    :func:`exact_array`; raises ParameterError if ``a`` is singular.
    A zero or repeated row of [a | b] makes ``a`` singular, so dropping it
    only shortens the elimination."""
    n = a.shape[0]
    rows = _primitive_rows([x for i in range(n) for x in (*a[i], b[i])], n + 1)
    rank, order = _bareiss(rows, n)
    if rank < n:
        raise ParameterError("singular matrix")
    x = np.empty(n, dtype=object)
    for k in reversed(range(n)):
        rest = sum(rows[k][j] * x[order[j]] for j in range(k + 1, n))
        x[order[k]] = Fraction(rows[k][n] - rest, rows[k][k])
    return exact_array(x)


def _bareiss(rows, ncols):
    """Bareiss elimination of the integer ``rows`` in place, with full
    pivoting over the first ``ncols`` columns (on the trailing entry of
    fewest bits) and any trailing right-hand side carried along.  Returns
    the rank r and the column order (column k now holds original column
    order[k]); rows[:r] end upper triangular, so columns order[:r] are
    independent."""
    n = len(rows)
    order = list(range(ncols))
    prev = 1
    for k in range(min(n, ncols)):
        piv = _smallest_entry(rows, k, ncols)
        if piv is None:
            return k, order
        pi, pj = piv
        if pi != k:
            rows[k], rows[pi] = rows[pi], rows[k]
        if pj != k:
            for row in rows:
                row[k], row[pj] = row[pj], row[k]
            order[k], order[pj] = order[pj], order[k]
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, len(rows[i])):
                rows[i][j] = (rows[i][j] * pivot - rik * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return min(n, ncols), order


def _smallest_entry(rows, k, ncols):
    """(i, j) of the nonzero entry of fewest bits in rows[k:], columns
    k..ncols-1, the first in row-major order on a tie; None if all are zero.
    A small pivot keeps Bareiss's cross products small."""
    best, piv = None, None
    for i in range(k, len(rows)):
        row = rows[i]
        for j in range(k, ncols):
            if row[j]:
                bits = row[j].bit_length()
                if best is None or bits < best:
                    best, piv = bits, (i, j)
                    if bits == 1:  # a unit: nothing is smaller
                        return piv
    return piv


def _full_rank_mod_p(rows, ncols):
    """Whether the integer ``rows`` (of ``ncols`` columns) have full rank
    min(len(rows), ncols) modulo _PRIME, which proves it over the rationals.

    Row-echelon elimination over the shorter side, vector by vector; it
    stops at the first vector that reduces to zero mod p, so a matrix of
    rank r costs at most r + 1 reductions.  False says nothing over the
    rationals: the caller falls back to Bareiss.
    """
    vectors = zip(*rows) if len(rows) > ncols else rows
    basis = []  # (pivot position, vector scaled to 1 there)
    for vec in vectors:
        v = [x % _PRIME for x in vec]
        for j, b in basis:
            c = v[j]
            if c:
                v = [(x - c * y) % _PRIME for x, y in zip(v, b)]
        j = next((j for j, x in enumerate(v) if x), None)
        if j is None:
            return False
        inv = pow(v[j], -1, _PRIME)
        basis.append((j, [x * inv % _PRIME for x in v]))
    return True


def _primitive_rows(values, width):
    """The distinct nonzero rows of the exact row-major ``values`` (rows of
    ``width`` entries) as Python ints: the whole matrix is cleared of
    denominators at once, then each row is divided by the gcd of its
    entries and signed so that its first nonzero entry is positive.

    Scaling a row by a nonzero rational or dropping a repeated or zero row
    leaves the rank unchanged, and fewer, smaller rows shorten Bareiss.
    """
    try:
        nums = clear_denominators(values)[0]
    except AttributeError:
        raise FieldMismatchError(
            "exact elimination requires int or Fraction entries") from None
    distinct = {}
    for i in range(0, len(nums), width or 1):  # no entries if width is 0
        row = nums[i:i + width]
        g = math.gcd(*row)
        if g == 0:
            continue
        if next(x for x in row if x) < 0:
            g = -g
        distinct.setdefault(tuple(x // g for x in row), None)
    return [list(row) for row in distinct]


def check_rel_tol(rel_tol):
    """Raises InvalidInputError unless ``rel_tol`` is finite and > 0."""
    if not 0 < rel_tol < math.inf:
        raise InvalidInputError(f"rel_tol must be finite and > 0, got {rel_tol}")


def rank_numeric(m, rel_tol: float = DEFAULT_REL_TOL) -> RankReport:
    """Numeric rank: count singular values above rel_tol * max(dims) * sigma_max."""
    check_rel_tol(rel_tol)
    arr, fld = _as_matrix(m)
    if fld == EXACT:
        arr = arr.astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("matrix has NaN/Inf entries")
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return RankReport(rank=0, method="svd", singular_values=tuple(sv),
                          tolerance=rel_tol)
    cutoff = rel_tol * max(arr.shape) * sv[0]
    rank = int(np.count_nonzero(sv > cutoff))
    return RankReport(rank=rank, method="svd", singular_values=tuple(sv),
                      tolerance=rel_tol)


def start_end_rank(t: DenseTensor, rel_tol: float = DEFAULT_REL_TOL) -> RankReport:
    """Rank of the start/end matricization of an order-T tensor (T even):
    the Start-End separation rank.  Exact for the exact field, SVD-based
    with ``rel_tol`` for the float field."""
    mat = matricize(t, IndexPartition.start_end(t.order))
    if t.field == EXACT:
        return rank_exact(mat)
    return rank_numeric(mat, rel_tol=rel_tol)


def multiset_coefficient(n: int, k: int) -> int:
    """Number of size-k multisets over n symbols: C(n+k-1, k)."""
    if n < 0 or k < 0:
        raise InvalidInputError("multiset_coefficient needs non-negative args")
    if k == 0:
        return 1
    if n == 0:
        return 0
    return math.comb(n + k - 1, k)
