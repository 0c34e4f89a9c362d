"""Forward evaluation, parameter validation, and serialization."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsep import (EXACT, FLOAT, InvalidInputError, Nonlinearity,
                    ParameterError, RAC_PRODUCT, RacParams, TemplateEncoder,
                    attach_inputs, build_mps, build_weights_tensor,
                    exact_array, forward_deep, forward_shallow, neutral_h0,
                    rnn_additive, score_from_tensor, step_deep)
from racsep.network import dump_params, parse_params


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
    out = forward_shallow(p, RAC_PRODUCT, TemplateEncoder.identity(2), [1, 2])
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


def test_rnn_additive_nonlinearity():
    g = rnn_additive()
    assert g.apply(np.array([1.0]), np.array([2.0]))[0] == 3.0
    p = RacParams(w_in=[np.array([[1.0]])], w_hidden=[np.array([[1.0]])],
                  w_out=np.array([[1.0]]), h0=[np.array([0.0])])
    out = forward_shallow(p, g, TemplateEncoder.identity(1, FLOAT), [1, 1])
    assert out[0] == pytest.approx(2.0)


def test_neutral_h0_makes_first_update_all_ones():
    rng = np.random.default_rng(0)
    w = exact_array(rng.integers(-5, 6, (3, 3)))
    h0 = neutral_h0(w)
    assert np.all(w @ h0 == exact_array([1, 1, 1]))


def test_neutral_h0_rejects_singular():
    with pytest.raises(ParameterError):
        neutral_h0(exact_array([[1, 1], [1, 1]]))


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


def test_encoder_validation():
    with pytest.raises(ParameterError):
        TemplateEncoder(exact_array([[1, 1], [1, 1]]))
    with pytest.raises(ParameterError):
        TemplateEncoder(exact_array([[1, 2, 3], [4, 5, 6]]))
    enc = TemplateEncoder.identity(3)
    assert np.all(enc.row(2) == exact_array([0, 1, 0]))


@pytest.mark.parametrize("seq", [(0, 1), (1, 3), (1, 1.5)],
                         ids=["zero", "above-M", "non-integer"])
@pytest.mark.parametrize("evaluate", [
    lambda p, enc, seq: forward_deep(p, RAC_PRODUCT, enc, seq),
    lambda p, enc, seq: attach_inputs(build_mps(p, 2), enc, seq),
    lambda p, enc, seq: score_from_tensor(build_weights_tensor(p, T=2), enc,
                                          seq),
], ids=["forward_deep", "attach_inputs", "score_from_tensor"])
def test_sequence_validation(evaluate, seq):
    # M=2: symbols must be integers in [1..2]; 0 used to wrap to symbol M
    p = exact_params(w_in=[[[1, 2], [3, 4]]], w_hidden=[[[1, 0], [0, 1]]],
                     w_out=[[1, 1]])
    with pytest.raises(InvalidInputError):
        evaluate(p, TemplateEncoder.identity(2), seq)


def test_params_reject_empty_sizes():
    with pytest.raises(ParameterError):
        RacParams(w_in=[np.zeros((0, 0))], w_hidden=[np.zeros((0, 0))],
                  w_out=np.zeros((1, 0)))
    with pytest.raises(ParameterError):
        exact_params(w_in=[[[1]]], w_hidden=[[[1]]], w_out=np.zeros((0, 1)))


def test_forward_shallow_rejects_deep():
    p = exact_params(w_in=[[[1]], [[1]]], w_hidden=[[[1]], [[1]]],
                     w_out=[[1]])
    with pytest.raises(ParameterError):
        forward_shallow(p, RAC_PRODUCT, TemplateEncoder.identity(1), [1])


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
        assert (forward_shallow(p, RAC_PRODUCT, enc, seq)[0]
                == forward_shallow(q, RAC_PRODUCT, enc, seq)[0])


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
