"""Core tensor type, matricization, serialization, and rank oracles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsep import (EXACT, FLOAT, DenseTensor, FieldMismatchError,
                    IndexPartition, InvalidInputError, ShapeError,
                    exact_array, hadamard_power, matricize,
                    multiset_coefficient, rank_exact, rank_numeric,
                    start_end_rank)
from racsep.tensor import dump_tensor, parse_tensor


def test_exact_tensor_holds_fractions():
    t = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    assert t.data.dtype == object
    assert t[0, 1] == Fraction(2)
    assert t.order == 2 and t.dims == (2, 2)


def _one_hot(index, value):
    """An int array shaped (2,) * len(index) holding value at index."""
    a = np.zeros((2,) * len(index), dtype=int)
    a[index] = value
    return a


def test_matricize_known_entry_placement():
    # order-4, M=2: entry (d1,d2,d3,d4) -> row 2*(d1-1)+(d2-1), col likewise
    t = DenseTensor(_one_hot((0, 1, 1, 0), 7), EXACT)
    m = matricize(t, IndexPartition.start_end(4))
    assert m.dims == (4, 4)
    assert m[1, 2] == Fraction(7)


def test_matricize_interleaved_partition():
    t = DenseTensor(_one_hot((1, 0, 1, 0), 5), EXACT)
    p = IndexPartition(S=(1, 3), E=(2, 4))
    m = matricize(t, p)
    assert m[3, 0] == Fraction(5)


def test_matricize_requires_equal_dims():
    t = DenseTensor(np.zeros((2, 3), dtype=int), EXACT)
    with pytest.raises(ShapeError):
        matricize(t, IndexPartition(S=(1,), E=(2,)))


def test_start_end_needs_even_T():
    with pytest.raises(ShapeError):
        IndexPartition.start_end(3)


def test_partition_must_cover_modes():
    with pytest.raises(ShapeError):
        IndexPartition(S=(1, 2), E=(2, 3))
    with pytest.raises(ShapeError):
        IndexPartition(S=(1,), E=(3,))


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 3), st.integers(1, 4), st.randoms(use_true_random=False))
def test_matricize_roundtrip(M, T, rnd):
    # every entry (d_1..d_T) lands in row sum_t d_{S_t} M^(|S|-t) and column
    # sum_t d_{E_t} M^(|E|-t) (0-based d); distinct entries make it a bijection
    t = DenseTensor(np.arange(M ** T).reshape((M,) * T), EXACT)
    S = tuple(sorted(rnd.sample(range(1, T + 1), rnd.randint(0, T))))
    E = tuple(i for i in range(1, T + 1) if i not in S)
    m = matricize(t, IndexPartition(S=S, E=E))
    assert m.dims == (M ** len(S), M ** len(E))

    def place(d, modes):
        return sum(d[i - 1] * M ** (len(modes) - k)
                   for k, i in enumerate(modes, 1))

    for d in itertools.product(range(M), repeat=T):
        assert m[place(d, S), place(d, E)] == t[d]


def test_start_end_rank_matches_matricized_rank():
    rng = np.random.default_rng(3)
    t = DenseTensor(exact_array(rng.integers(-2, 3, (2,) * 4)), EXACT)
    mat = matricize(t, IndexPartition.start_end(4))
    assert start_end_rank(t) == rank_exact(mat)
    f = DenseTensor(rng.uniform(-1, 1, (3,) * 4), FLOAT)
    mat = matricize(f, IndexPartition.start_end(4))
    assert start_end_rank(f, rel_tol=1e-9) == rank_numeric(mat, rel_tol=1e-9)
    with pytest.raises(ShapeError):
        start_end_rank(DenseTensor(np.zeros((2, 2, 2), dtype=int), EXACT))


def test_hadamard_power_entrywise():
    m = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    sq = hadamard_power(m, 2)
    assert sq[1, 1] == Fraction(16)
    with pytest.raises(InvalidInputError):
        hadamard_power(m, 0)


@pytest.mark.parametrize("fmt_field", [EXACT, FLOAT])
def test_serialization_roundtrip(fmt_field):
    if fmt_field == EXACT:
        t = DenseTensor(exact_array([Fraction(1, 3), 2, 0, -5,
                                     Fraction(-7, 2), 9], shape=(2, 3)))
    else:
        t = DenseTensor(np.array([0.1, -2.5, 3e-17, 1.0, -0.0, 7.25])
                        .reshape(2, 3), FLOAT)
    back = parse_tensor(dump_tensor(t))
    assert back.equals(t)
    # byte-determinism of the text format
    assert dump_tensor(back) == dump_tensor(t)


def test_parse_rejects_bad_header():
    with pytest.raises(InvalidInputError):
        parse_tensor("nonsense\n1 2 3\n")


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_parse_rejects_truncated_header(cut):
    text = dump_tensor(DenseTensor(np.array([1, 2]), EXACT))
    with pytest.raises(InvalidInputError):
        parse_tensor("\n".join(text.splitlines()[:cut]))


def test_parse_rejects_unknown_field():
    with pytest.raises(InvalidInputError):
        parse_tensor("racsep-tensor v1\norder 1\ndims 2\nfield bogus\n1\n2\n")


@pytest.mark.parametrize("field", ["bogus", "Exact", ""])
def test_dense_tensor_rejects_unknown_field(field):
    # an unknown field used to be stored as given, int64 data and all
    with pytest.raises(InvalidInputError):
        DenseTensor([[1, 2]], field)


@pytest.mark.parametrize("dims,entries", [("3", "1\n2"), ("1", "1\n2"),
                                          ("2 0", "")],
                         ids=["short", "long", "zero-dim"])
def test_parse_rejects_block_not_matching_dims(dims, entries):
    order = len(dims.split())
    with pytest.raises(InvalidInputError):
        parse_tensor(f"racsep-tensor v1\norder {order}\ndims {dims}\n"
                     f"field exact\n{entries}\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite(bad):
    with pytest.raises(InvalidInputError):
        parse_tensor(f"racsep-tensor v1\norder 1\ndims 2\nfield float\n1.0\n{bad}\n")


# --- rank oracles ----------------------------------------------------------

def test_rank_exact_known_values():
    assert rank_exact(exact_array([[1, 2], [2, 4]])).rank == 1
    assert rank_exact(exact_array([[1, 0], [0, 1]])).rank == 2
    assert rank_exact(exact_array([[0, 0], [0, 0]])).rank == 0
    # cancellation that defeats naive float pivoting
    m = exact_array([[Fraction(1, 3), Fraction(1, 3)],
                     [Fraction(1, 7), Fraction(1, 7)]])
    assert rank_exact(m).rank == 1
    # Python ints mixed with Fractions over large, unlike denominators
    a, b = Fraction(1, 2 ** 61 - 1), Fraction(-3, 10 ** 30 + 7)
    k = Fraction(10 ** 20 + 1, 3 ** 40)
    m = np.array([[1, a, b], [k, k * a, k * b], [b, 5, a]], dtype=object)
    assert rank_exact(m).rank == 2
    m[1, 0] = 2
    assert rank_exact(m).rank == 3


@pytest.mark.parametrize("entry", [np.int64(2 ** 32),
                                   Fraction(np.int64(2 ** 32))],
                         ids=["int64", "fraction-of-int64"])
def test_exact_oracles_on_numpy_integers(entry):
    # int64 Bareiss would wrap 2^32 * 2^32 to 0 and report rank 1
    diag = np.array([[entry, 0], [0, entry]], dtype=object)
    assert rank_exact(diag).rank == 2
    assert start_end_rank(DenseTensor(diag, EXACT)).rank == 2
    assert all(type(f.numerator) is int and type(f.denominator) is int
               for f in exact_array(diag).reshape(-1))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_rank_exact_ignores_scaled_repeated_and_zero_rows(data):
    # the content/repeat pre-pass before Bareiss must not change any rank
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    a = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n * m,
                                    max_size=n * m))).reshape(n, m)
    rows = [list(map(int, r)) for r in a]
    scaled = data.draw(st.lists(st.tuples(
        st.integers(0, n - 1),
        st.integers(-2 ** 70, 2 ** 70).filter(bool)), max_size=6))
    b = (rows + [[k * x for x in rows[i]] for i, k in scaled]
         + [[0] * m] * data.draw(st.integers(0, 2)))
    b = data.draw(st.permutations(b))
    want = int(np.linalg.matrix_rank(a.astype(float)))
    assert (rank_exact(exact_array(b)).rank == rank_exact(exact_array(a)).rank
            == rank_exact(exact_array(a.T)).rank == want)


def test_rank_exact_rejects_float():
    with pytest.raises(FieldMismatchError):
        rank_exact(np.eye(2))
    with pytest.raises(FieldMismatchError):
        rank_exact(np.array([[0.5, 1]], dtype=object))


def test_rank_numeric_matches_exact_on_integers():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.integers(-4, 5, (5, 5))
        assert rank_numeric(a.astype(float)).rank == rank_exact(exact_array(a)).rank


def test_rank_numeric_tolerance_scale():
    a = np.diag([1.0, 1e-20])
    assert rank_numeric(a).rank == 1
    assert rank_numeric(a, rel_tol=1e-25).rank == 2


def test_rank_numeric_rejects_nan():
    with pytest.raises(InvalidInputError):
        rank_numeric(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf, -1.0, 0.0])
def test_rank_numeric_refuses_a_tolerance_that_is_not_finite_and_positive(
        rel_tol):
    # nan and inf used to give rank 0 and a negative value counted zero
    # singular values, for the zero matrix too
    for a in (np.eye(3), np.zeros((2, 2))):
        with pytest.raises(InvalidInputError, match="rel_tol"):
            rank_numeric(a, rel_tol=rel_tol)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 6), st.integers(0, 6))
def test_multiset_coefficient_recurrence(n, k):
    # multiset(n, k) counts size-k multisets: Pascal-style recurrence
    if n >= 1 and k >= 1:
        assert (multiset_coefficient(n, k)
                == multiset_coefficient(n - 1, k) + multiset_coefficient(n, k - 1))
    assert multiset_coefficient(n, 0) == 1
    if n == 0 and k > 0:
        assert multiset_coefficient(n, k) == 0


def test_multiset_paper_values():
    assert multiset_coefficient(2, 2) == 3
    assert multiset_coefficient(3, 2) == 6
    assert multiset_coefficient(2, 3) == 4
