"""Matrix rank oracles: exact fraction-free elimination and SVD-based.

The exact oracle runs Bareiss (division-deferred) elimination with full
pivoting over arbitrary-precision integers, so rationals with wildly
different magnitudes (entries spanning thousands of binary digits) are
handled without loss.  Before elimination every row is divided by its
content (the gcd of its entries) and repeated and zero rows are dropped,
which changes no rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldMismatchError, InvalidInputError, ShapeError
from .tensor import (EXACT, FLOAT, DenseTensor, IndexPartition,
                     clear_denominators, matricize)

DEFAULT_REL_TOL = 1e-12


@dataclass(frozen=True)
class RankReport:
    rank: int
    method: str  # "exact" | "svd"
    singular_values: tuple = field(default=())
    tolerance: float = 0.0


def _as_matrix(m):
    if isinstance(m, DenseTensor):
        if m.order != 2:
            raise ShapeError(f"rank expects an order-2 tensor, got order {m.order}")
        return m.data, m.field
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ShapeError("rank expects a matrix")
    return arr, (EXACT if arr.dtype == object else FLOAT)


def rank_exact(m) -> RankReport:
    """Exact rank by fraction-free Gaussian elimination with full pivoting."""
    arr, fld = _as_matrix(m)
    if fld != EXACT:
        raise FieldMismatchError("rank_exact requires the exact scalar field")
    try:
        rows = _primitive_rows(clear_denominators(row)[0] for row in arr)
    except AttributeError:
        raise FieldMismatchError(
            "rank_exact requires int or Fraction entries") from None
    n, ncols = len(rows), arr.shape[1]

    rank = 0
    prev = 1
    for k in range(min(n, ncols)):
        # full pivoting: any nonzero entry in the trailing block will do
        piv = None
        for i in range(k, n):
            for j in range(k, ncols):
                if rows[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            rows[k], rows[pi] = rows[pi], rows[k]
        if pj != k:
            for row in rows:
                row[k], row[pj] = row[pj], row[k]
        pivot = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            for j in range(k + 1, ncols):
                rows[i][j] = (rows[i][j] * pivot - rik * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
        rank += 1
    return RankReport(rank=rank, method="exact")


def _primitive_rows(rows):
    """The distinct nonzero rows, each divided by the gcd of its entries
    and signed so that its first nonzero entry is positive.

    Scaling a row by a nonzero integer or dropping a repeated or zero row
    leaves the rank unchanged, and fewer, smaller rows shorten Bareiss.
    """
    distinct = {}
    for row in rows:
        g = math.gcd(*row)
        if g == 0:
            continue
        if next(x for x in row if x) < 0:
            g = -g
        distinct.setdefault(tuple(x // g for x in row), None)
    return [list(row) for row in distinct]


def rank_numeric(m, rel_tol: float = DEFAULT_REL_TOL) -> RankReport:
    """Numeric rank: count singular values above rel_tol * max(dims) * sigma_max."""
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
