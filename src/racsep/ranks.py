"""Matrix rank oracles: exact fraction-free elimination and SVD-based.

Every computation mod p uses one prime, PRIME = 2097143, the largest
below 2^21 (a product of two residues is below 2^42, so an int64 sum of
fewer than 2^21 of them cannot wrap: (PRIME - 1)^2 * 2^21 < 2^63), and
one kernel, an incremental row echelon form mod p (:func:`_echelon_mod_p`,
which says of each vector in turn whether it is independent mod p of
those before it).  Vectors independent mod p are independent over the
rationals too, so a rank mod p is a lower bound on the rank, exact where
it meets an upper bound.  :func:`independent_mod_p` lists the kept
vectors; :func:`full_rank_mod_p`, the one certificate, runs the kernel
over a matrix's shorter side (rows, or columns when there are more rows
than columns) and stops at the first dependent vector.

The exact oracle first writes the matrix over one common denominator
(tensor.split_denominator, as every exact elimination here does) and drops
repeated and zero rows, which changes no rank.  If the certificate holds
on those rows as they are, the rank is min(rows, columns), exactly, since
a minor that is nonzero mod p is a nonzero integer.  Only if it fails is
every row divided by its content (the gcd of its entries,
:func:`primitive_row`), so that proportional rows collapse, and Bareiss
(division-deferred) elimination with full pivoting over
arbitrary-precision integers gives the rank, so rationals with wildly
different magnitudes (entries spanning thousands of binary digits) are
handled without loss.
Each Bareiss pivot is the trailing entry of fewest bits (the first in
row-major order on a tie), which keeps the cross products small, and it
runs only on primitive rows.  The same Bareiss elimination solves square
exact systems (:func:`solve_exact`, back-substituting in integers for det
times the solution), such as the neutral initial state W_h h0 = 1, and
picks a column basis (:func:`column_basis`, its pivot columns), from which
the builders compute a depth <= 2 start/end rank through the mid-sequence
states.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (FieldMismatchError, InvalidInputError, ParameterError,
                     ShapeError, check_count)
from .tensor import (EXACT, FLOAT, DenseTensor, exact_array, field_of,
                     split_denominator)

DEFAULT_REL_TOL = 1e-12
# below 2^21, so a blocked elimination mod p may also use float64 products
# of inner width up to 2^11 (Dumas, Giorgi and Pernet, ACM TOMS 2008)
PRIME = 2097143


@dataclass(frozen=True)
class RankReport:
    rank: int
    method: str  # "exact" | "svd"
    singular_values: tuple = field(default=())
    tolerance: float = 0.0


def _as_matrix(m, fld):
    """A DenseTensor's or array's entries as a matrix; ShapeError unless
    they form one, FieldMismatchError unless they are in field ``fld``."""
    try:
        arr = m.data if isinstance(m, DenseTensor) else np.asarray(m)
    except ValueError as e:  # a ragged nested list
        raise ShapeError(f"rank expects a matrix: {e}") from None
    if arr.ndim != 2:
        raise ShapeError(f"rank expects a matrix, got order {arr.ndim}")
    if field_of(arr) != fld:
        raise FieldMismatchError(
            f"this rank oracle takes {fld} matrices, not {field_of(arr)} ones")
    return arr


def rank_exact(m) -> RankReport:
    """Exact rank: full rank certified modulo a prime on the distinct rows
    (:func:`full_rank_mod_p`), else fraction-free Gaussian elimination with
    full pivoting on the primitive rows."""
    rows, ncols = _exact_rows(m)
    rows = [list(row) for row in dict.fromkeys(map(tuple, rows)) if any(row)]
    if full_rank_mod_p(rows, ncols):
        rank = min(len(rows), ncols)
    else:
        rank = _bareiss(_primitive_rows(rows), ncols)[0]
    return RankReport(rank=rank, method="exact")


def column_basis(m) -> list:
    """Indices, ascending, of r = rank(m) columns of the exact matrix ``m``
    that span its column space: Bareiss's pivot columns.  Scaling, dropping
    and reordering rows keeps every column dependency, so the primitive rows
    give the same columns."""
    rows, ncols = _exact_rows(m)
    rank, order = _bareiss(_primitive_rows(rows), ncols)
    return sorted(order[:rank])


def _exact_rows(m):
    """The rows of the exact matrix ``m`` over one common denominator
    (:func:`split_denominator`), as lists of Python ints, and its column
    count; FieldMismatchError if ``m`` is not exact."""
    arr = _as_matrix(m, EXACT)
    return split_denominator(arr)[0].tolist(), arr.shape[1]


def solve_exact(a, b):
    """The x with a x = b over the rationals, for square exact ``a``, as an
    :func:`exact_array`; raises ShapeError unless ``a`` is square and ``b``
    has one entry per row, and ParameterError if ``a`` is singular.
    A zero or repeated row of [a | b] makes ``a`` singular, so dropping it
    only shortens the elimination."""
    n = len(b)
    if np.shape(a) != (n, n):
        raise ShapeError(f"solve_exact needs an n x n matrix for n = {n} "
                         f"right-hand sides, got shape {np.shape(a)}")
    ab = np.empty((n, n + 1), dtype=object)  # [a | b] in Python scalars
    ab[:, :n], ab[:, n] = a, b
    rows = _primitive_rows(split_denominator(ab)[0].tolist())
    rank, order = _bareiss(rows, n)
    if rank < n:
        raise ParameterError("singular matrix")
    # the last Bareiss pivot is det = +-det of the integer system, so by
    # Cramer's rule y = det x is an integer vector: back-substitute in
    # integers (each division is exact) and divide by det once per entry
    det = rows[-1][n - 1] if n else 1
    y = [0] * n
    for k in reversed(range(n)):
        rest = sum(rows[k][j] * y[j] for j in range(k + 1, n))
        y[k] = (det * rows[k][n] - rest) // rows[k][k]
    x = np.empty(n, dtype=object)
    for k in range(n):
        x[order[k]] = Fraction(y[k], det)
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


def full_rank_mod_p(rows, ncols):
    """Whether the integer ``rows`` (of ``ncols`` columns) have full rank
    min(len(rows), ncols) modulo PRIME, which proves it over the rationals:
    the one certificate of every exact rank.  :func:`_echelon_mod_p` runs
    over the shorter side and stops at the first vector that reduces to
    zero, so a matrix of rank r costs at most r + 1 reductions.  False says
    nothing over the rationals."""
    vectors = zip(*rows) if len(rows) > ncols else rows
    return all(_echelon_mod_p(vectors))


def independent_mod_p(vectors, limit=None):
    """Indices, ascending, of the integer ``vectors`` that
    :func:`_echelon_mod_p` keeps, each independent mod p of those before
    it; it reduces no vector once it keeps ``limit`` of them.  Without a
    limit their number is the rank mod p, a lower bound on the rank over
    the rationals."""
    kept = itertools.compress(itertools.count(), _echelon_mod_p(vectors))
    return list(itertools.islice(kept, limit))


def _echelon_mod_p(vectors):
    """Yields, for each integer vector (Python or numpy integers) in turn,
    whether it is independent mod PRIME of those before it: an incremental
    row echelon form mod p, the one mod-p kernel.  The vectors it keeps are
    independent over the rationals too, since a minor that is nonzero mod p
    is a nonzero integer."""
    basis = []  # (pivot position, vector scaled to 1 there)
    for vector in vectors:
        v = [x % PRIME for x in vector]
        for j, b in basis:
            c = v[j]
            if c:
                v = [(x - c * y) % PRIME for x, y in zip(v, b)]
        j = next((j for j, x in enumerate(v) if x), None)
        if j is not None:
            inv = pow(v[j], -1, PRIME)
            basis.append((j, [x * inv % PRIME for x in v]))
        yield j is not None


def primitive_row(row):
    """The integer ``row`` divided by the gcd of its entries and signed so
    that its first nonzero entry is positive, as a tuple; None for a zero
    row.  Two rows have one primitive form exactly when each is a nonzero
    rational multiple of the other."""
    g = math.gcd(*row)
    if g == 0:
        return None
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row)


def _primitive_rows(rows):
    """The distinct primitive forms of the nonzero rows among the integer
    ``rows``, in order of first appearance, as lists.

    Scaling a row by a nonzero rational or dropping a repeated or zero row
    leaves the rank unchanged, and fewer, smaller rows shorten Bareiss.
    """
    forms = dict.fromkeys(map(primitive_row, rows))
    forms.pop(None, None)
    return [list(row) for row in forms]


def check_rel_tol(rel_tol):
    """Raises InvalidInputError unless ``rel_tol`` is real, finite and > 0."""
    if (type(rel_tol) is bool or not isinstance(rel_tol, numbers.Real)
            or not 0 < rel_tol < math.inf):
        raise InvalidInputError(f"rel_tol must be finite and > 0, got {rel_tol}")


def rank_numeric(m, rel_tol: float = DEFAULT_REL_TOL) -> RankReport:
    """Numeric rank of a float matrix (an exact one raises FieldMismatchError,
    text or complex data InvalidInputError, as :class:`DenseTensor` does):
    count singular values above rel_tol * max(dims) * sigma_max."""
    check_rel_tol(rel_tol)
    arr = DenseTensor(_as_matrix(m, FLOAT)).data
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


def multiset_coefficient(n: int, k: int) -> int:
    """Number of size-k multisets over n symbols: C(n+k-1, k); n and k must
    be integers >= 0 (InvalidInputError)."""
    check_count("n", n, 0)
    check_count("k", k, 0)
    if k == 0:
        return 1
    if n == 0:
        return 0
    return math.comb(n + k - 1, k)
