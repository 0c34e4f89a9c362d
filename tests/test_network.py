"""Forward evaluation, parameter validation, and serialization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsep import (EXACT, FLOAT, Cell, InvalidInputError, ParameterError,
                    RAC_PRODUCT, RacParams, ShapeError, TemplateEncoder,
                    appendix_b_params, attach_inputs, build_grid_tensor,
                    build_mps, check_bucket_lemma,
                    draw_params, exact_array, forward_deep,
                    neutral_h0, separation_rank,
                    step_deep, trial_rng)
from racsep.network import dump_params, parse_params
from racsep.ranks import solve_exact
from scalars import canonical


def exact_params(w_in, w_hidden, w_out, h0=None):
    return RacParams(w_in=[exact_array(m) for m in w_in],
                     w_hidden=[exact_array(m) for m in w_hidden],
                     w_out=exact_array(w_out),
                     h0=None if h0 is None else [exact_array(h) for h in h0])


def test_shallow_forward_by_hand():
    # R=2, M=2: h^t = (Wh h^{t-1}) * (Wi x^t), identity encoder
    p = exact_params(w_in=[[[1, 2], [3, 4]]],
                     w_hidden=[[[1, 0], [0, 1]]],
                     w_out=[[1, 1]],
                     h0=[[1, 1]])
    # seq (1, 2): h1 = (1*1, 1*3) = (1, 3); h2 = (1*2, 3*4) = (2, 12)
    out = forward_deep(p, RAC_PRODUCT, TemplateEncoder.identity(2), [1, 2])
    assert out[0] == Fraction(14)


def test_deep_forward_by_hand():
    # L=2, R=1, M=1: every matrix a scalar; trace the product chain by hand.
    p = exact_params(w_in=[[[2]], [[3]]],
                     w_hidden=[[[1]], [[1]]],
                     w_out=[[1]],
                     h0=[[1], [1]])
    enc = TemplateEncoder.identity(1)
    # layer1: h = prev * 2 each step -> 2, 4; layer2: h = prev * 3*h1
    # t1: h2 = 1 * 3*2 = 6; t2: h2 = 6 * 3*4 = 72
    assert forward_deep(p, RAC_PRODUCT, enc, [1, 1])[0] == Fraction(72)


def _det(rows):
    """Leibniz determinant, one signed product per permutation."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]]
                                                for i in range(n))
    return total


@st.composite
def hidden_matrices(draw):
    """A square W_h of size 1-5 in one of the exact forms: Python ints up to
    +-2^70, Fractions, or numpy int64 in an object array; a third of the
    draws repeat a scaled row, so singular ones are common."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["int", "fraction", "int64"]))
    entry = {"int": st.integers(-2 ** 70, 2 ** 70),
             # the doubled row below must still fit in int64
             "int64": st.integers(-2 ** 61, 2 ** 61),
             "fraction": st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                      max_denominator=10 ** 6)}[kind]
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.integers(0, 2)) == 0:
        rows[-1] = [x * draw(st.sampled_from([1, -1, 2])) for x in rows[0]]
    w = np.empty((n, n), dtype=object)
    w[:, :] = [[np.int64(x) if kind == "int64" else x for x in row]
               for row in rows]
    return w


@settings(deadline=None, max_examples=300)
@given(hidden_matrices())
def test_neutral_h0_makes_first_update_all_ones(w):
    # numpy int64 entries used to wrap inside the elimination: h0 came back
    # wrong with only a RuntimeWarning
    exact = exact_array(w)  # Python ints and Fractions of them
    if _det(exact.tolist()) == 0:
        with pytest.raises(ParameterError):
            neutral_h0(w)
        return
    h0 = neutral_h0(w)
    assert all(map(canonical, h0))
    assert list(exact @ h0) == [1] * len(w)


def test_neutral_h0_rejects_singular():
    with pytest.raises(ParameterError):
        neutral_h0(exact_array([[1, 1], [1, 1]]))


@pytest.mark.parametrize("solve,error", [
    (lambda: neutral_h0(exact_array([[1, 2, 3], [4, 5, 6]])), ParameterError),
    (lambda: neutral_h0(np.array([[1., 2, 3], [4, 5, 6]])), ParameterError),
    (lambda: solve_exact(exact_array([[1, 2], [3, 4]]), [1, 1, 1]),
     ShapeError),
    (lambda: solve_exact(exact_array([[1, 2], [3, 4]]), [1]), ShapeError),
    (lambda: solve_exact(exact_array([[1, 2, 3], [4, 5, 6]]), [1, 1]),
     ShapeError),
], ids=["h0-exact-2x3", "h0-float-2x3", "b-too-long", "b-too-short",
        "a-2x3"])
def test_exact_solves_refuse_mismatched_shapes(solve, error):
    # an exact 2 x 3 W_h gave h0 = [1 1] while a float one was called
    # singular; a b of length 3 was cut to 2 and solved, one of length 1
    # raised IndexError
    with pytest.raises(error, match="square|n x n"):
        solve()


def test_params_shape_validation():
    good = dict(w_in=[exact_array([[1, 2], [3, 4]])],
                w_hidden=[exact_array([[1, 0], [0, 1]])],
                w_out=exact_array([[1, 1]]))
    RacParams(**good)
    bad = dict(good, w_out=exact_array([[1, 1, 1]]))
    with pytest.raises(ParameterError):
        RacParams(**bad)
    with pytest.raises(ParameterError):
        RacParams(**dict(good, w_hidden=[exact_array([[1, 2, 3], [4, 5, 6]])]))
    with pytest.raises(ParameterError):
        RacParams(**dict(good, w_hidden=[np.eye(2)]))  # field mix


@pytest.mark.parametrize("w_in", [1j * np.eye(2),
                                  np.array([["1", "0"], ["0", "1"]])],
                         ids=["complex", "text"])
def test_params_refuse_weights_that_are_not_real_numbers(w_in):
    # a complex network was ranked on its real part with only a
    # ComplexWarning, and a text one was accepted as a float network
    with pytest.raises(ParameterError, match="real arrays"):
        RacParams(w_in=[w_in], w_hidden=[np.eye(2)], w_out=np.ones((1, 2)))


@pytest.mark.parametrize("h0", [[np.array([0.5, 0.5])], [[1, 1]]])
def test_params_refuse_an_h0_of_another_field_or_not_an_array(h0):
    # a float h0 in an exact network used to fail later with AttributeError
    # in separation_rank, and a list h0 with AttributeError reading .shape
    with pytest.raises(ParameterError):
        RacParams(w_in=[exact_array([[1, 2], [3, 4]])],
                  w_hidden=[exact_array([[1, 0], [0, 1]])],
                  w_out=exact_array([[1, 1]]), h0=h0)


def test_cell_sizes_and_iteration():
    cell = Cell(3, 2, 6)
    assert (cell.L, cell.half, cell.width) == (1, 3, 27)
    assert tuple(cell) == (3, 2, 6, 1)
    assert tuple(Cell(2, 2, 4, 3)) == (2, 2, 4, 3)


@pytest.mark.parametrize("args,got", [
    ((2, 2, 3), "T = 3"), ((2, 2, 0), "T = 0"), ((2, 2, -2), "T = -2"),
    ((0, 2, 4), "M = 0"), ((2, 0, 4), "R = 0"), ((2, 2, 4, 0), "L = 0"),
    ((0, 2, 5), "M = 0, T = 5"), ((2, 2, 4.0), "T = 4.0"),
])
def test_cell_refuses_a_bad_size_with_one_message(args, got):
    with pytest.raises(ShapeError) as ei:
        Cell(*args)
    assert str(ei.value) == ("a cell needs integers M, R, L >= 1 and an even "
                             f"T >= 2, got {got}")


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("k", range(4), ids=list("MRTL"))
def test_cell_refuses_a_bool_size(k, flag):
    # bool is an Integral, but not a size: Cell(True, 2, 4) is refused as
    # check_steps refuses T=True
    args = [2, 2, 4, 1]
    args[k] = flag
    with pytest.raises(ShapeError) as ei:
        Cell(*args)
    assert str(ei.value).endswith(f"got {'MRTL'[k]} = {flag}")


@pytest.mark.parametrize("T", [3, 0])
def test_every_site_refuses_a_bad_T_with_the_cell_message(T):
    with pytest.raises(ShapeError) as ei:
        Cell(2, 2, T)
    message = str(ei.value)
    shallow = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2)
    deep = draw_params(trial_rng(0, 2, 2, 4, 2, 0), 2, 2, L=2, field=FLOAT)
    for call in (lambda: separation_rank(shallow, T),
                 lambda: separation_rank(deep, T),
                 lambda: appendix_b_params(2, 2, T),
                 lambda: check_bucket_lemma(2, T)):
        with pytest.raises(ShapeError) as ei:
            call()
        assert str(ei.value) == message


@pytest.mark.parametrize("c", [1.0, True, 0, 2])
@pytest.mark.parametrize("site", [
    lambda p, c: separation_rank(p, 4, c=c),
    lambda p, c: build_grid_tensor(p, c=c, T=4),
    lambda p, c: build_mps(p, 4, c=c)],
    ids=["separation_rank", "build_grid_tensor", "build_mps"])
def test_every_site_refuses_a_class_that_is_not_an_index(site, c):
    # a single-class draw: 1.0 used to raise a bare numpy IndexError, and
    # True was taken as class 1
    p = draw_params(trial_rng(7, 2, 2, 4, 1, 0), 2, 2)
    with pytest.raises(ParameterError, match="class index"):
        site(p, c)


@pytest.mark.parametrize("key", ["w_in", "w_out"])
def test_params_refuse_a_weight_that_is_not_a_matrix(key):
    # a 1-D w_out or w_in[0] used to raise IndexError reading shape[1]
    good = dict(w_in=[exact_array([[1, 2], [3, 4]])],
                w_hidden=[exact_array([[1, 0], [0, 1]])],
                w_out=exact_array([[1, 1]]))
    flat = exact_array([1, 1])
    with pytest.raises(ParameterError):
        RacParams(**dict(good, **{key: [flat] if key == "w_in" else flat}))


@pytest.mark.parametrize("block, flat", [("w_out 1 2", "w_out 2"),
                                         ("w_in 0 2 3", "w_in 0 6")])
def test_parse_params_refuses_a_weight_block_that_is_not_a_matrix(block,
                                                                  flat):
    text = _dumped_params(EXACT)
    assert block in text.splitlines()
    with pytest.raises(ParameterError):
        parse_params(text.replace(block, flat))


def test_encoder_validation():
    with pytest.raises(ParameterError):
        TemplateEncoder(exact_array([[1, 1], [1, 1]]))
    with pytest.raises(ParameterError):
        TemplateEncoder(exact_array([[1, 2, 3], [4, 5, 6]]))
    enc = TemplateEncoder.identity(3)
    assert np.all(enc.row(2) == exact_array([0, 1, 0]))


_EVALUATE = {
    "forward_deep": lambda p, enc, seq: forward_deep(p, RAC_PRODUCT, enc, seq),
    "attach_inputs": lambda p, enc, seq: attach_inputs(build_mps(p, 2), enc,
                                                       seq),
}
_BAD_SEQUENCES = {"zero": (0, 1), "above-M": (1, 3), "non-integer": (1, 1.5),
                  "too-long": (1, 2, 1), "bool": (True, 2)}


@pytest.mark.parametrize("name,seq", [
    pytest.param(name, seq, id=f"{name}-{kind}")
    for name in _EVALUATE for kind, seq in _BAD_SEQUENCES.items()
    # forward_deep scores a sequence of any length
    if (name, kind) != ("forward_deep", "too-long")])
def test_sequence_validation(name, seq):
    # M=2: symbols must be integers in [1..2]; 0 used to wrap to symbol M,
    # and True was read as symbol 1.  The MPS takes exactly T=2 symbols: a
    # longer sequence used to be scored on its first two by attach_inputs
    p = exact_params(w_in=[[[1, 2], [3, 4]]], w_hidden=[[[1, 0], [0, 1]]],
                     w_out=[[1, 1]])
    with pytest.raises(InvalidInputError):
        _EVALUATE[name](p, TemplateEncoder.identity(2), seq)


def test_params_reject_empty_sizes():
    with pytest.raises(ParameterError):
        RacParams(w_in=[np.zeros((0, 0))], w_hidden=[np.zeros((0, 0))],
                  w_out=np.zeros((1, 0)))
    with pytest.raises(ParameterError):
        exact_params(w_in=[[[1]]], w_hidden=[[[1]]], w_out=np.zeros((0, 1)))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_step_deep_multiplicative_structure(seed):
    # scaling the input of the bottom layer scales a depth-1 state linearly
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1, 1, (2, 2))
    p = RacParams(w_in=[w], w_hidden=[rng.uniform(0.5, 1, (2, 2))],
                  w_out=np.ones((1, 2)))
    x = rng.uniform(-1, 1, 2)
    s = [rng.uniform(-1, 1, 2)]
    doubled = step_deep(p, RAC_PRODUCT, s, 2 * x)
    base = step_deep(p, RAC_PRODUCT, s, x)
    assert np.allclose(doubled[0], 2 * base[0])


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_params_serialization_roundtrip(field):
    rng = np.random.default_rng(9)
    if field == EXACT:
        mk = lambda s: exact_array(rng.integers(-9, 10, s))
    else:
        mk = lambda s: rng.uniform(-1, 1, s)
    p = RacParams(w_in=[mk((2, 3)), mk((2, 2))],
                  w_hidden=[mk((2, 2)), mk((2, 2))],
                  w_out=mk((1, 2)))
    q = parse_params(dump_params(p))
    assert q.L == p.L and q.field == p.field
    for a, b in zip(p.w_in + p.w_hidden + p.h0, q.w_in + q.w_hidden + q.h0):
        assert np.all(a == b)
    assert np.all(p.w_out == q.w_out)
    assert dump_params(q) == dump_params(p)


def test_forward_invariant_under_serialization():
    rng = np.random.default_rng(11)
    p = RacParams(w_in=[exact_array(rng.integers(-5, 6, (2, 2)))],
                  w_hidden=[exact_array([[1, 1], [0, 1]])],
                  w_out=exact_array([[2, -1]]))
    q = parse_params(dump_params(p))
    enc = TemplateEncoder.identity(2)
    for seq in itertools.product([1, 2], repeat=3):
        assert (forward_deep(p, RAC_PRODUCT, enc, seq)[0]
                == forward_deep(q, RAC_PRODUCT, enc, seq)[0])


def _dumped_params(field):
    rng = np.random.default_rng(9)
    if field == EXACT:
        mk = lambda s: exact_array(rng.integers(-9, 10, s))
    else:
        mk = lambda s: rng.uniform(-1, 1, s)
    return dump_params(RacParams(w_in=[mk((2, 3))], w_hidden=[mk((2, 2))],
                                 w_out=mk((1, 2))))


@pytest.mark.parametrize("cut", [1, 3, 5, 6])
def test_parse_params_rejects_truncated_header(cut):
    lines = _dumped_params(EXACT).splitlines()
    with pytest.raises(InvalidInputError):
        parse_params("\n".join(lines[:cut]))


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_parse_params_rejects_short_block(field):
    lines = _dumped_params(field).splitlines()
    with pytest.raises(InvalidInputError):
        parse_params("\n".join(lines[:-1]))
    with pytest.raises(InvalidInputError):  # w_in short by one entry
        parse_params("\n".join(lines[:7] + lines[8:]))


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_parse_params_rejects_trailing_lines(field):
    # a stray line after the h0 blocks used to be ignored
    with pytest.raises(InvalidInputError, match="garbage"):
        parse_params(_dumped_params(field) + "garbage 1 2\n")


def test_parse_params_rejects_unknown_field():
    text = _dumped_params(FLOAT).replace("field float", "field bogus")
    with pytest.raises(InvalidInputError):
        parse_params(text)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_parse_params_rejects_non_finite(bad):
    lines = _dumped_params(FLOAT).splitlines()
    lines[7] = bad
    with pytest.raises(InvalidInputError):
        parse_params("\n".join(lines))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dump_params_refuses_non_finite(bad):
    # it used to write nan/inf, which parse_params refuses
    p = RacParams(w_in=[np.array([[bad, 1.0], [0.5, 1.0]])],
                  w_hidden=[np.eye(2)], w_out=np.array([[1.0, 1.0]]))
    with pytest.raises(InvalidInputError, match="must be finite"):
        dump_params(p)


@pytest.mark.parametrize("header", ["R 5", "M 2", "C 3", "w_in 7", "h0 5"])
def test_parse_params_rejects_header_mismatch(header):
    # the blocks hold R=2, M=3, C=1 and one layer, index 0; the edit replaces
    # the first value on the line of that key
    key, value = header.split()
    lines = _dumped_params(EXACT).splitlines()
    pos = next(i for i, line in enumerate(lines) if line.split()[0] == key)
    lines[pos] = " ".join([key, value] + lines[pos].split()[2:])
    with pytest.raises(InvalidInputError):
        parse_params("\n".join(lines))


_I2, _ROW = np.eye(2), np.ones((1, 2))


@pytest.mark.parametrize("build,match", [
    (lambda: neutral_h0(np.array([[1.0, 2.0], [2.0, 4.0]])), "singular"),
    (lambda: RacParams(w_in=[_I2, _I2], w_hidden=[_I2], w_out=_ROW),
     "one matrix per layer"),
    (lambda: RacParams(w_in=[], w_hidden=[], w_out=_ROW), "at least one"),
    (lambda: RacParams(w_in=[_I2, np.ones((2, 3))], w_hidden=[_I2, _I2],
                       w_out=_ROW), r"w_in\[1\] must be \(2, 2\)"),
    (lambda: RacParams(w_in=[_I2], w_hidden=[_I2], w_out=_ROW,
                       h0=[np.ones(3)]), "one length-R vector per layer"),
], ids=["singular-float-h0", "unequal-layers", "no-layer", "deep-w_in",
        "h0-length"])
def test_malformed_networks_are_refused(build, match):
    with pytest.raises(ParameterError, match=match):
        build()
