"""The exact rank oracle's mod-p full-rank certificate against Bareiss.

``rank_exact`` reports min(rows, columns) when the primitive rows have full
rank modulo a prime, and runs Bareiss otherwise.  Every certificate test
here compares that answer with Bareiss on the same primitive rows.  The
Bareiss pivot rule, the column basis read off its pivots, and the factored
single-layer start/end rank built on that basis are checked here too.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsep import (AppendixBAssignment, Cell, FieldMismatchError,
                    IndexPartition,
                    ParameterError, build_grid_tensor, build_weights_tensor,
                    check_claim1_equality, column_basis, draw_trials,
                    exact_array, matricize, rank_exact, separation_rank,
                    verify_min_cut, verify_shallow_rank_law)
from racsep import ranks
from racsep.ranks import solve_exact
from scalars import canonical

# the private kernels under test, reached through the module
P = ranks._PRIME
_bareiss, _full_rank_mod_p = ranks._bareiss, ranks._full_rank_mod_p


def _rows(m):
    """The primitive rows of the exact matrix ``m``."""
    m = np.asarray(m, dtype=object)
    return ranks._primitive_rows(m.reshape(-1), m.shape[1])


def _check_agrees(m):
    """Asserts that rank_exact(m) is Bareiss's rank of the primitive rows of
    ``m``, and full rank where certified; returns the rank and whether the
    certificate decided it."""
    m = np.asarray(m, dtype=object)
    rows = _rows(m)
    certified = _full_rank_mod_p(rows, m.shape[1])
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
    asg = AppendixBAssignment(M=M, R=R, T=T)
    grid = build_grid_tensor(asg.params(), T=T).tensor
    mat = matricize(grid, IndexPartition.start_end(T)).data
    rank, certified = _check_agrees(mat)
    assert rank == asg.bound
    # the bound is full rank of the primitive rows exactly when M <= R
    assert certified == (M <= R)


# the shallow-exact benchmark cells at seed 7, with its 50 draws per cell
SUITE_CELLS = [(M, R, T) for M in (2, 3) for R in (1, 2, 3, 4) for T in (4, 6)]


def test_certificate_agrees_with_bareiss_on_suite_draws(monkeypatch):
    verdicts = []

    def checked(rows, ncols):
        certified = _full_rank_mod_p(rows, ncols)
        if certified:
            rank, _ = _bareiss([row[:] for row in rows], ncols)
            assert rank == min(len(rows), ncols)
        verdicts.append(certified)
        return certified

    monkeypatch.setattr(ranks, "_full_rank_mod_p", checked)
    for M, R, T in SUITE_CELLS:
        verify_shallow_rank_law(Cell(M, R, T), 50, seed=7)
        check_claim1_equality(Cell(M, R, T), 50, seed=7)
        verify_min_cut(Cell(M, R, T), 50, seed=7)
    # both branches ran: certified full rank, and the Bareiss fallback
    assert True in verdicts and False in verdicts


def test_factored_rank_agrees_with_weights_tensor_on_suite_draws():
    for M, R, T in SUITE_CELLS:
        for _, p in draw_trials(7, Cell(M, R, T), 50, "exact"):
            w = build_weights_tensor(p, T=T).tensor
            want = rank_exact(matricize(w, IndexPartition.start_end(T))).rank
            assert separation_rank(p, T).rank == want <= R


def _matrices_with_redundant_rows():
    """Integer matrices of chosen rank (a product of two random factors),
    with entries near multiples of the prime, plus scaled, repeated and zero
    rows, in any order."""
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
    assert not _full_rank_mod_p(_rows(m), 2)
    assert rank_exact(exact_array(m)).rank == 2


def test_more_rows_than_columns_checks_columns():
    # dependent rows, independent columns: certified through the columns
    m = [[1, 0], [0, 1], [1, 1], [2, 3]]
    assert _full_rank_mod_p(_rows(m), 2)
    assert rank_exact(exact_array(m)).rank == 2
    # the columns are dependent mod p only
    m = [[1, 1], [1, 1 + P], [2, 2 + P]]
    assert len(_rows(m)) == 3 and not _full_rank_mod_p(_rows(m), 2)
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
