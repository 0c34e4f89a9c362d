"""Core tensor type, matricization, serialization, and rank oracles."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsep import (EXACT, FLOAT, DenseTensor, FieldMismatchError,
                    InvalidInputError, RacsepError, ShapeError, build_mps,
                    draw_params, exact_array, hadamard_power, matricize,
                    multiset_coefficient, rank_exact, rank_numeric,
                    trial_rng)
from racsep.network import dump_params, parse_params
from racsep.ranks import check_rel_tol
from racsep.tensor import dump_tensor, parse_tensor, split_denominator
from racsep.tn import dump_graph, parse_graph


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
    m = matricize(t)
    assert m.dims == (4, 4)
    assert m[1, 2] == Fraction(7)


def test_matricize_requires_equal_dims():
    t = DenseTensor(np.zeros((2, 3), dtype=int), EXACT)
    with pytest.raises(ShapeError):
        matricize(t)


def test_start_end_needs_even_T():
    # the start and end halves of an odd order do not exist
    for order in (1, 3):
        with pytest.raises(ShapeError, match="even order"):
            matricize(DenseTensor(np.zeros((2,) * order, dtype=int), EXACT))


def test_matricize_roundtrip():
    # every entry (d_1..d_T) lands in row sum_{t<=T/2} d_t M^(T/2-t) and
    # column sum_{t>T/2} d_t M^(T-t) (0-based d); distinct entries make it
    # a bijection
    def place(digits, M):
        return sum(x * M ** k for k, x in enumerate(reversed(digits)))

    for (M, T), field in itertools.product(
            [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4)], [EXACT, FLOAT]):
        t = DenseTensor(np.arange(M ** T).reshape((M,) * T), field)
        m = matricize(t)
        assert m.dims == (M ** (T // 2),) * 2 and m.field == field
        for d in itertools.product(range(M), repeat=T):
            assert m[place(d[:T // 2], M), place(d[T // 2:], M)] == t[d]


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


def test_equals_is_false_across_fields_or_dims():
    t = DenseTensor(np.arange(4).reshape(2, 2), EXACT)
    assert t.equals(DenseTensor(np.arange(4).reshape(2, 2), EXACT))
    assert not t.equals(DenseTensor(np.arange(4).reshape(2, 2), FLOAT))
    assert not t.equals(DenseTensor(np.arange(4), EXACT))


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


def test_parse_refuses_order_0():
    # order 0 used to parse as an order-1 tensor, so dump_tensor wrote
    # "order 1" and the round trip changed the file
    with pytest.raises(InvalidInputError, match="order 0"):
        parse_tensor("racsep-tensor v1\norder 0\ndims\nfield exact\n1/1\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite(bad):
    with pytest.raises(InvalidInputError):
        parse_tensor(f"racsep-tensor v1\norder 1\ndims 2\nfield float\n1.0\n{bad}\n")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dump_tensor_refuses_non_finite(bad):
    # it used to write nan/inf, which parse_tensor refuses
    with pytest.raises(InvalidInputError, match="must be finite"):
        dump_tensor(DenseTensor(np.array([bad, 1.0]), FLOAT))


@pytest.mark.parametrize("field", [EXACT, FLOAT])
@pytest.mark.parametrize("dims", [(2, 0), (0,), (0, 3, 1)])
def test_dump_tensor_refuses_a_zero_dim(field, dims):
    # it used to write a file that parse_tensor refuses
    with pytest.raises(InvalidInputError, match="dims must be >= 1"):
        dump_tensor(DenseTensor(np.zeros(dims), field))


def _edits(text):
    """Every dump with one line deleted, one line doubled, or one word of a
    line dropped."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        words = line.split()
        for j in range(len(words)):
            yield lines[:i] + [" ".join(words[:j] + words[j + 1:])] \
                + lines[i + 1:]


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_every_edited_dump_is_refused_with_a_typed_error(field):
    # a tensor, a two-layer parameter file and a T = 4 MPS graph: no edit
    # parses, and none escapes as a bare IndexError, ValueError or TypeError
    p = draw_params(trial_rng(0, 2, 2, 4, 2, 0), 2, 2, L=2, field=field)
    shallow = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, field=field)
    dumps = [(parse_tensor, dump_tensor(
                 DenseTensor(np.arange(1, 7).reshape(2, 3), field))),
             (parse_params, dump_params(p)),
             (parse_graph, dump_graph(build_mps(shallow, 4)))]
    tried, untyped = 0, []
    for parse, text in dumps:
        parse(text)
        for lines in _edits(text):
            tried += 1
            try:
                parse("\n".join(lines) + "\n")
            except RacsepError:
                continue
            except Exception as e:
                untyped.append((lines, repr(e)))
            else:
                untyped.append((lines, "parsed"))
    assert tried > 300 and untyped == []


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
    assert rank_exact(matricize(DenseTensor(diag, EXACT))).rank == 2
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


@settings(deadline=None, max_examples=100)
@given(st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70),
                          st.fractions(max_denominator=10 ** 6)),
                min_size=1, max_size=12))
def test_split_denominator_writes_an_exact_array_over_its_lcm(values):
    a = exact_array(values, shape=(len(values),))
    n, d = split_denominator(a)
    assert n.dtype == object and n.shape == a.shape
    assert all(type(x) is int for x in n)
    assert d == math.lcm(*(Fraction(v).denominator for v in values))
    assert all(x / Fraction(d) == v for x, v in zip(n, a))


def test_split_denominator_widens_numpy_integers():
    # int64 would wrap 2^62 * 4 to 0
    a = np.array([[np.int64(2 ** 62), Fraction(1, 4)]], dtype=object)
    n, d = split_denominator(a)
    assert d == 4 and n.tolist() == [[2 ** 64, 1]]
    assert all(type(x) is int for x in n.reshape(-1))


@pytest.mark.parametrize("bad", [np.nan, "x", None, 0.5, np.float64(2)])
def test_split_denominator_refuses_an_entry_that_is_not_rational(bad):
    with pytest.raises(FieldMismatchError):
        split_denominator(np.array([1, bad], dtype=object))


def test_split_denominator_leaves_a_float_array_over_1():
    a = np.array([[0.5, -2.0]])
    n, d = split_denominator(a)
    assert d == 1 and n.dtype == np.float64 and np.array_equal(n, a)
    n, d = split_denominator(np.array([3, 4], dtype=np.int32))
    assert d == 1 and n.dtype == np.float64 and n.tolist() == [3.0, 4.0]


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


@pytest.mark.parametrize("rel_tol", ["x", "1e-12", None, 1j, True])
def test_rel_tol_must_be_a_real_number(rel_tol):
    # "x" used to raise a bare TypeError from the comparison, and True
    # ranked with a tolerance of 1.0
    with pytest.raises(InvalidInputError, match="rel_tol"):
        check_rel_tol(rel_tol)
    with pytest.raises(InvalidInputError, match="rel_tol"):
        rank_numeric(np.eye(2), rel_tol=rel_tol)


@pytest.mark.parametrize("field", [None, FLOAT])
@pytest.mark.parametrize("data", [np.array(["a"]), np.array(["1.5"]),
                                  np.array([1 + 2j])],
                         ids=["text", "numeric-text", "complex"])
def test_float_tensor_refuses_data_that_is_not_real_numbers(data, field):
    # "a" used to raise a bare ValueError, "1.5" was parsed to 1.5, and a
    # complex entry lost its imaginary part with only a ComplexWarning
    with pytest.raises(InvalidInputError, match="real numbers"):
        DenseTensor(data, field)


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
