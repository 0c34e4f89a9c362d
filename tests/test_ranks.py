"""The exact rank oracle's mod-p full-rank certificate against Bareiss.

``rank_exact`` reports min(rows, columns) when the distinct rows have full
rank modulo a prime, and runs Bareiss on the primitive rows otherwise.
Every certificate test here compares that answer with Bareiss on the
primitive rows.  The Bareiss pivot rule, the
column basis read off its pivots, and the factored single-layer start/end
rank built on that basis are checked here too.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsep import (Cell, FieldMismatchError, ParameterError,
                    appendix_b_params, build_grid_tensor, build_weights_tensor,
                    check_claim1_equality, column_basis, draw_trials,
                    exact_array, matricize, multiset_coefficient, rank_exact,
                    separation_rank, verify_min_cut, verify_shallow_rank_law)
from racsep import ranks
from racsep.ranks import solve_exact
from scalars import canonical

# the kernels under test, reached through the module
P = ranks.PRIME
_bareiss, full_rank_mod_p = ranks._bareiss, ranks.full_rank_mod_p


def _rows(m):
    """The primitive rows of the exact matrix ``m``."""
    return ranks._primitive_rows(ranks._exact_rows(
        np.asarray(m, dtype=object))[0])


def _check_agrees(m):
    """Asserts that rank_exact(m) is Bareiss's rank of the primitive rows of
    ``m``, and full rank where certified; returns the rank and whether the
    certificate decided it."""
    m = np.asarray(m, dtype=object)
    rows = _rows(m)
    certified = full_rank_mod_p(rows, m.shape[1])
    rank, _ = _bareiss(rows, m.shape[1])
    if certified:
        assert rank == min(len(rows), m.shape[1])
    assert rank_exact(exact_array(m)).rank == rank
    return rank, certified


# (3,3,8) is left out: Bareiss takes minutes on its 177k-bit rows
APPENDIX_B = [(M, R, T) for M in (2, 3) for R in (2, 3) for T in (4, 6, 8)
              if (M, R, T) != (3, 3, 8)]


@pytest.mark.parametrize("M,R,T", APPENDIX_B)
def test_certificate_agrees_with_bareiss_on_appendix_b_grids(M, R, T):
    grid = build_grid_tensor(appendix_b_params(M, R, T), T=T)
    mat = matricize(grid).data
    rank, certified = _check_agrees(mat)
    assert rank == multiset_coefficient(min(M, R), T // 2)
    # the bound is full rank of the primitive rows exactly when M <= R
    assert certified == (M <= R)


# the shallow-exact benchmark cells at seed 7, with its 50 draws per cell
SUITE_CELLS = [(M, R, T) for M in (2, 3) for R in (1, 2, 3, 4) for T in (4, 6)]


def test_certificate_agrees_with_bareiss_on_suite_draws(monkeypatch):
    verdicts = []

    def checked(rows, ncols):
        certified = full_rank_mod_p(rows, ncols)
        if certified:
            rank, _ = _bareiss([row[:] for row in rows], ncols)
            assert rank == min(len(rows), ncols)
        verdicts.append(certified)
        return certified

    monkeypatch.setattr(ranks, "full_rank_mod_p", checked)
    for M, R, T in SUITE_CELLS:
        verify_shallow_rank_law(Cell(M, R, T), 50, seed=7)
        check_claim1_equality(Cell(M, R, T), 50, seed=7)
        verify_min_cut(Cell(M, R, T), 50, seed=7)
    # both branches ran: certified full rank, and the Bareiss fallback
    assert True in verdicts and False in verdicts


def test_factored_rank_agrees_with_weights_tensor_on_suite_draws():
    for M, R, T in SUITE_CELLS:
        for _, p in draw_trials(7, Cell(M, R, T), 50, "exact"):
            w = build_weights_tensor(p, T=T)
            want = rank_exact(matricize(w)).rank
            assert separation_rank(p, T).rank == want <= R


def _matrices_with_redundant_rows():
    """Integer matrices of chosen rank (a product of two random factors),
    with entries near multiples of the prime, plus scaled, repeated and zero
    rows and rows equal to another mod p only, in any order."""
    entry = st.one_of(st.integers(-3, 3),
                      st.sampled_from([P, -P, P + 1,
                                       2 * P - 1, 2 ** 70]))

    @st.composite
    def build(draw):
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        k = draw(st.integers(1, max(n, m)))
        a = np.array(draw(st.lists(entry, min_size=n * k, max_size=n * k)),
                     dtype=object).reshape(n, k)
        b = np.array(draw(st.lists(entry, min_size=k * m, max_size=k * m)),
                     dtype=object).reshape(k, m)
        rows = (a @ b).tolist()
        scaled = draw(st.lists(st.tuples(
            st.integers(0, n - 1),
            st.one_of(st.integers(-2 ** 70, 2 ** 70).filter(bool),
                      st.fractions().filter(bool))), max_size=4))
        rows += [[k * x for x in rows[i]] for i, k in scaled]
        rows += [rows[i] for i in draw(st.lists(st.integers(0, n - 1),
                                                max_size=2))]
        shifted = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, m - 1)), max_size=2))
        rows += [[x + P * (j == col) for j, x in enumerate(rows[i])]
                 for i, col in shifted]
        rows += [[0] * m] * draw(st.integers(0, 2))
        return draw(st.permutations(rows))
    return build()


@settings(deadline=None, max_examples=200)
@given(_matrices_with_redundant_rows())
def test_certificate_agrees_with_bareiss_on_random_matrices(rows):
    _check_agrees(rows)
    _check_agrees(np.array(rows, dtype=object).T)


def test_singular_mod_p_falls_back_to_bareiss():
    m = [[1, 1], [1, 1 + P]]  # det = p: singular mod p, rank 2 over Q
    assert not full_rank_mod_p(_rows(m), 2)
    assert rank_exact(exact_array(m)).rank == 2


def _record_calls(monkeypatch, names):
    """Wraps each named ranks kernel to log its name; returns the log."""
    calls = []
    for name in names:
        def spy(*args, _name=name, _kernel=getattr(ranks, name)):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(ranks, name, spy)
    return calls


KERNELS = ("full_rank_mod_p", "_primitive_rows", "_bareiss")


@pytest.mark.parametrize("m,rank,calls", [
    # full rank once a repeat and a zero row are dropped, with no content
    # divided out (the three columns are dependent)
    ([[2, 4, 6], [1, 3, 5], [2, 4, 6], [0, 0, 0]], 2, ["full_rank_mod_p"]),
    # proportional rows: one certificate fails, and Bareiss ranks the
    # primitive rows, in which the two collapse
    ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 2,
     ["full_rank_mod_p", "_primitive_rows", "_bareiss"]),
    # equal mod p but not proportional: only Bareiss finds rank 2
    ([[1, 1], [1, 1 + P]], 2,
     ["full_rank_mod_p", "_primitive_rows", "_bareiss"]),
])
def test_rank_exact_certifies_before_dividing_out_contents(m, rank, calls,
                                                           monkeypatch):
    log = _record_calls(monkeypatch, KERNELS)
    assert rank_exact(exact_array(m)).rank == rank
    assert log == calls
    _check_agrees(m)


def test_certified_appendix_b_rank_divides_no_row(monkeypatch):
    log = _record_calls(monkeypatch, KERNELS)
    p = appendix_b_params(3, 3, 6)
    assert separation_rank(p, 6).rank == multiset_coefficient(3, 3) == 10
    assert log == ["full_rank_mod_p"]


def test_more_rows_than_columns_checks_columns():
    # dependent rows, independent columns: certified through the columns
    m = [[1, 0], [0, 1], [1, 1], [2, 3]]
    assert full_rank_mod_p(_rows(m), 2)
    assert rank_exact(exact_array(m)).rank == 2
    # the columns are dependent mod p only
    m = [[1, 1], [1, 1 + P], [2, 2 + P]]
    assert len(_rows(m)) == 3 and not full_rank_mod_p(_rows(m), 2)
    assert rank_exact(exact_array(m)).rank == 2
    assert rank_exact(exact_array([[1], [2], [Fraction(1, 3)]])).rank == 1


@settings(deadline=None, max_examples=100)
@given(_matrices_with_redundant_rows())
def test_column_basis_spans_the_columns(rows):
    m = exact_array(rows)
    basis = column_basis(m)
    rank = rank_exact(m).rank
    assert basis == sorted(set(basis)) and len(basis) == rank
    assert rank_exact(m[:, basis]).rank == rank


def test_column_basis_skips_dependent_columns():
    m = exact_array([[0, 2, 4, 1], [0, 1, 2, 0], [0, 3, 6, 1]])
    assert column_basis(m) in ([1, 3], [2, 3])
    with pytest.raises(FieldMismatchError):
        column_basis(np.ones((2, 2)))


def test_bareiss_pivots_on_the_entry_of_fewest_bits():
    rows = [[6, 4, 12], [3, -1, 5]]
    rank, order = _bareiss(rows, 3)
    # -1 first; the second pivot is then -18 of the eliminated [-18, -32]
    assert rank == 2 and order == [1, 0, 2]
    assert rows[0][0] == -1 and rows[1][1:] == [-18, -32]
    # a tie goes to the first entry in row-major order
    assert _bareiss([[5, 6], [7, 4]], 2)[1] == [0, 1]


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_matrices_have_rank_zero(shape):
    assert rank_exact(np.empty(shape, dtype=object)).rank == 0
    assert column_basis(np.empty(shape, dtype=object)) == []


def test_solve_exact_on_int64_matrix():
    # int64 products of these entries wrap; the solver must use Python ints
    a = np.array([[2 ** 40, 3], [5, 2 ** 40]], dtype=np.int64)
    x = solve_exact(a, [1, 1])
    assert all(map(canonical, x))
    exact = exact_array(a.tolist())
    assert list(exact @ x) == [1, 1]
    with pytest.raises(ParameterError):
        solve_exact(np.array([[2 ** 40, 2 ** 40]] * 2, dtype=np.int64), [1, 2])


def test_echelon_keeps_vectors_independent_mod_p():
    verdicts = ranks._echelon_mod_p
    # [2, 5] = 2 [1, 1] + [0, 3]
    assert list(verdicts([[1, 1], [0, 3], [2, 5]])) == [True, True, False]
    # [1, 1] and [1, 1 + P] are independent over Q but equal mod p
    assert list(verdicts([[1, 1], [1, 1 + P], [0, 0], [P, -P]])) == [
        True, False, False, False]
    assert rank_exact(exact_array([[1, 1], [1, 1 + P]])).rank == 2
    # numpy integers and huge Python ints reduce alike
    assert list(verdicts([np.array([P, 2 ** 70], dtype=object)])) == [True]


def test_independent_mod_p_keeps_the_first_independent_vectors():
    vectors = [[0, 0], [1, 2], [2, 4], [1, 2 + P], [0, 1], [1, 0]]
    assert ranks.independent_mod_p(vectors) == [1, 4]
    assert ranks.independent_mod_p(vectors, 1) == [1]
    assert ranks.independent_mod_p([]) == []
    assert ranks.independent_mod_p(iter(vectors), 0) == []


class _Unreadable:
    """A vector that fails the test if a kernel ever reads it."""

    def __iter__(self):
        raise AssertionError("reduced a vector past the answer")


def test_mod_p_kernels_reduce_nothing_past_their_answer():
    # independent_mod_p stops at its limit, and the certificate at the
    # first vector that reduces to zero
    assert ranks.independent_mod_p([[1, 0], [0, 1], _Unreadable()], 2) == [
        0, 1]
    assert not full_rank_mod_p([[1, 0, 0], [2, 0, 0], _Unreadable()], 3)


def _square_systems():
    """(a, b): an n x n matrix and n right-hand sides, n 0-4, with integer
    or rational entries (some with a large prime denominator)."""
    @st.composite
    def build(draw):
        n = draw(st.integers(0, 4))
        entry = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70),
                          st.fractions(max_denominator=7),
                          st.sampled_from([Fraction(1, P), Fraction(P, 3)]))
        if draw(st.booleans()):
            entry = st.integers(-9, 9)
        a = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=n, max_size=n))
        return a, draw(st.lists(entry, min_size=n, max_size=n))
    return build()


@settings(deadline=None, max_examples=200)
@given(_square_systems())
def test_solve_exact_solves_the_system_exactly(system):
    a, b = system
    n = len(b)
    a = exact_array(a, shape=(n, n))
    if rank_exact(a).rank < n:
        with pytest.raises(ParameterError):
            solve_exact(a, b)
        return
    x = solve_exact(a, b)
    assert x.shape == (n,) and all(map(canonical, x))
    assert list(a @ x) == b
