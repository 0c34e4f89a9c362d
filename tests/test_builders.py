"""Weights tensor and grid tensor builders, and the start/end rank of a
network (:func:`separation_rank`)."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from racsep import (AppendixBAssignment, EXACT, FLOAT, IndexPartition,
                    InvalidInputError, ParameterError, RAC_PRODUCT, RacParams,
                    ResourceBudgetError, ShapeError, TemplateEncoder,
                    attach_inputs, build_grid_tensor, build_mps,
                    build_weights_tensor, contract, draw_params, exact_array,
                    forward_deep, grid_budget, matricize, rank_exact,
                    score_from_tensor, separation_rank, start_end_rank,
                    step_deep, trial_rng)
from racsep import builders, network
from racsep.builders import GRID_BUDGET_ENV
from scalars import canonical


def test_weights_tensor_matches_forward_on_every_sequence():
    # the defining property: A_{d1..dT} equals the network output on the
    # template sequence (d1..dT) with identity encoder and neutral h0
    for seed in range(5):
        p = draw_params(trial_rng(seed, 2, 3, 4, 1, 0), 2, 3, L=1)
        w = build_weights_tensor(p, T=4)
        enc = TemplateEncoder.identity(2)
        for d in itertools.product([1, 2], repeat=4):
            idx = tuple(x - 1 for x in d)
            assert w.tensor[idx] == forward_deep(p, RAC_PRODUCT, enc, d)[0]


def test_weights_tensor_r1_rank_one():
    p = RacParams(w_in=[exact_array([[2, 3]])], w_hidden=[exact_array([[5]])],
                  w_out=exact_array([[1]]))
    w = build_weights_tensor(p, T=4)
    m = matricize(w.tensor, IndexPartition.start_end(4))
    assert rank_exact(m).rank == 1


def test_weights_tensor_class_selection():
    rng = trial_rng(3, 2, 2, 4, 1, 0)
    p = draw_params(rng, 2, 2, L=1, C=2)
    w1 = build_weights_tensor(p, c=1, T=2)
    w2 = build_weights_tensor(p, c=2, T=2)
    enc = TemplateEncoder.identity(2)
    out = forward_deep(p, RAC_PRODUCT, enc, [2, 1])
    assert w1.tensor[1, 0] == out[0]
    assert w2.tensor[1, 0] == out[1]
    with pytest.raises(ParameterError):
        build_weights_tensor(p, c=3, T=2)


def test_weights_tensor_requires_shallow_and_valid_T():
    deep = draw_params(trial_rng(0, 2, 2, 4, 2, 0), 2, 2, L=2)
    with pytest.raises(ParameterError):
        build_weights_tensor(deep, T=4)
    shallow = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    with pytest.raises(ShapeError):
        build_weights_tensor(shallow, T=1)
    for T in (0, -3):  # used to give the 1-entry empty-sequence score
        with pytest.raises(ShapeError):
            build_grid_tensor(shallow, T=T)
        with pytest.raises(ShapeError):
            build_grid_tensor(deep, T=T)


def test_score_from_tensor_general_encoder():
    # with a non-identity encoder the score is the full contraction
    p = draw_params(trial_rng(7, 2, 2, 4, 1, 0), 2, 2, L=1)
    enc = TemplateEncoder(exact_array([[1, 2], [1, -1]]))
    w = build_weights_tensor(p, T=3)
    for seq in itertools.product([1, 2], repeat=3):
        assert (score_from_tensor(w, enc, seq)
                == forward_deep(p, RAC_PRODUCT, enc, seq)[0])


@pytest.mark.parametrize("enc", [TemplateEncoder.identity(3),
                                 TemplateEncoder.identity(2, FLOAT)],
                         ids=["wrong-M", "wrong-field"])
def test_score_from_tensor_rejects_mismatched_encoder(enc):
    p = draw_params(trial_rng(7, 2, 2, 4, 1, 0), 2, 2, L=1)
    w = build_weights_tensor(p, T=4)
    with pytest.raises(ParameterError):
        score_from_tensor(w, enc, (1, 2, 1, 2))


def test_grid_tensor_matches_forward_deep():
    p = draw_params(trial_rng(4, 2, 2, 4, 2, 0), 2, 2, L=2)
    g = build_grid_tensor(p, T=3)
    enc = TemplateEncoder.identity(2)
    for d in itertools.product([1, 2], repeat=3):
        idx = tuple(x - 1 for x in d)
        assert g.tensor[idx] == forward_deep(p, RAC_PRODUCT, enc, d)[0]


def test_grid_tensor_float_field():
    p = draw_params(trial_rng(4, 2, 2, 4, 2, 0), 2, 2, L=2, field=FLOAT)
    g = build_grid_tensor(p, T=4)
    enc = TemplateEncoder.identity(2, FLOAT)
    val = forward_deep(p, RAC_PRODUCT, enc, [1, 2, 2, 1])[0]
    assert g.tensor[0, 1, 1, 0] == pytest.approx(val, rel=1e-12)


def test_grid_tensor_custom_encoder():
    p = draw_params(trial_rng(8, 2, 2, 4, 1, 0), 2, 2, L=1)
    enc = TemplateEncoder(exact_array([[2, 1], [0, 1]]))
    g = build_grid_tensor(p, enc=enc, T=2)
    assert g.tensor[1, 0] == forward_deep(p, RAC_PRODUCT, enc, [2, 1])[0]


@pytest.mark.parametrize("enc", [
    TemplateEncoder.identity(3),
    TemplateEncoder(np.array([[0.5, 1], [1, -0.25]]))],
    ids=["wrong-M", "wrong-field"])
def test_grid_tensor_rejects_mismatched_encoder(enc):
    p = draw_params(trial_rng(7, 2, 2, 4, 2, 0), 2, 2, L=2)
    with pytest.raises(ParameterError):
        build_grid_tensor(p, enc=enc, T=4)


def test_grid_budget_enforced(monkeypatch):
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    monkeypatch.setenv(GRID_BUDGET_ENV, "8")
    with pytest.raises(ResourceBudgetError) as ei:
        build_grid_tensor(p, T=4)
    assert ei.value.required == 16 and ei.value.budget == 8
    build_grid_tensor(p, T=3)  # 8 entries fits


@pytest.mark.parametrize("value", ["abc", "1e3", "-8", "8.0", ""])
def test_grid_budget_refuses_a_malformed_value(value, monkeypatch):
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    monkeypatch.setenv(GRID_BUDGET_ENV, value)
    with pytest.raises(InvalidInputError, match=GRID_BUDGET_ENV):
        build_grid_tensor(p, T=2)
    with pytest.raises(InvalidInputError, match=GRID_BUDGET_ENV):
        separation_rank(p, 2)
    monkeypatch.delenv(GRID_BUDGET_ENV)
    assert grid_budget() == 10 ** 7


def test_weights_budget_enforced(monkeypatch):
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    monkeypatch.setenv(GRID_BUDGET_ENV, "15")
    with pytest.raises(ResourceBudgetError) as ei:
        build_weights_tensor(p, T=4)
    assert ei.value.required == 16 and ei.value.budget == 15
    build_weights_tensor(p, T=3)  # 8 entries fits


def test_grid_equals_weights_tensor_identity_encoder():
    # single-layer, identity templates: the two constructions coincide
    for seed in range(3):
        p = draw_params(trial_rng(seed, 3, 2, 4, 1, 0), 3, 2, L=1)
        g = build_grid_tensor(p, T=4)
        w = build_weights_tensor(p, T=4)
        assert g.tensor.equals(w.tensor)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_builders_agree_with_forward_for_explicit_h0(data):
    # with an explicit rational h0, a hidden matrix that may be singular and
    # a non-singular rational encoder F, the grid under F, the weights tensor
    # contracted with F (Claim 1), the MPS contraction and the forward pass
    # must give the same exact output; the builders share the frontier, the
    # other two paths do not
    M = data.draw(st.integers(1, 3))
    R = data.draw(st.integers(1, 3))
    T = data.draw(st.integers(2, 4 if M <= 2 else 3))

    def ints(*shape):
        n = int(np.prod(shape))
        vals = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        return exact_array(vals, shape=shape)

    wh = ints(R, R)
    if data.draw(st.booleans()):
        wh[-1] = 0  # singular: no neutral h0 exists
    h0 = exact_array(data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=R, max_size=R)))
    F = exact_array(data.draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        min_size=M * M, max_size=M * M)), shape=(M, M))
    assume(rank_exact(F).rank == M)
    p = RacParams(w_in=[ints(R, M)], w_hidden=[wh], w_out=ints(1, R),
                  h0=[h0])
    enc = TemplateEncoder(F)
    weights = build_weights_tensor(p, T=T)
    grid = build_grid_tensor(p, enc=enc, T=T).tensor
    mps = build_mps(p, T)
    for d in itertools.product(range(1, M + 1), repeat=T):
        idx = tuple(x - 1 for x in d)
        want = forward_deep(p, RAC_PRODUCT, enc, d)[0]
        assert score_from_tensor(weights, enc, d) == want
        assert grid[idx] == want
        assert contract(attach_inputs(mps, enc, d)).entries[0] == want
        assert canonical(grid[idx])


def _abs_forward(p, F, seq):
    """Output of the network with every weight, h0 and encoding replaced by
    its absolute value: a bound on the sum of |terms| of an output entry."""
    q = RacParams(w_in=[abs(w) for w in p.w_in],
                  w_hidden=[abs(w) for w in p.w_hidden],
                  w_out=abs(p.w_out), h0=[abs(h) for h in p.h0])
    states = q.h0
    for s in seq:
        states = step_deep(q, RAC_PRODUCT, states, abs(F[s - 1]))
    return (q.w_out @ states[-1])[0]


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_grid_frontier_matches_forward_with_rational_weights(data):
    # exact grids run on integers over one denominator per layer; rational
    # weights, h0 and encoder feed every factor of that denominator
    L = data.draw(st.integers(1, 3))
    M = data.draw(st.integers(1, 3))
    R = data.draw(st.integers(1, 3))
    T = data.draw(st.integers(1, 3 if M == 3 else 4))

    def rationals(*shape):
        n = math.prod(shape)
        vals = data.draw(st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=5),
            min_size=n, max_size=n))
        return exact_array(vals, shape=shape)

    F = rationals(M, M)
    assume(rank_exact(F).rank == M)
    w_in = [rationals(R, M if l == 0 else R) for l in range(L)]
    w_hidden = [rationals(R, R) for _ in range(L)]
    h0 = [rationals(R) for _ in range(L)] if data.draw(st.booleans()) else None
    try:
        p = RacParams(w_in=w_in, w_hidden=w_hidden, w_out=rationals(1, R),
                      h0=h0)
    except ParameterError:  # a singular hidden matrix has no neutral h0
        assume(False)
    enc = TemplateEncoder(F)
    grid = build_grid_tensor(p, enc=enc, T=T).tensor

    # the same network in floats; the frontier sums in another order than
    # the forward pass, so the two agree to rounding of the |terms| bound
    def to_float(a):
        return a.astype(np.float64)

    q = RacParams(w_in=list(map(to_float, p.w_in)),
                  w_hidden=list(map(to_float, p.w_hidden)),
                  w_out=to_float(p.w_out), h0=list(map(to_float, p.h0)))
    fenc = TemplateEncoder(to_float(F))
    fgrid = build_grid_tensor(q, enc=fenc, T=T).tensor
    assert fgrid.field == FLOAT
    for d in itertools.product(range(1, M + 1), repeat=T):
        idx = tuple(x - 1 for x in d)
        assert grid[idx] == forward_deep(p, RAC_PRODUCT, enc, d)[0]
        assert canonical(grid[idx])
        want = forward_deep(q, RAC_PRODUCT, fenc, d)[0]
        assert abs(fgrid[idx] - want) <= 1e-12 * float(_abs_forward(p, F, d))


def _weights_rank(p, T, c=1):
    """The start/end rank of the materialized weights tensor."""
    w = build_weights_tensor(p, c=c, T=T).tensor
    return rank_exact(matricize(w, IndexPartition.start_end(T))).rank


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_factored_rank_matches_weights_tensor(data):
    # rational weights with many zero entries, an explicit h0 that may be
    # all zero (rank 0), a possibly singular W_h and any class
    M = data.draw(st.integers(1, 3))
    R = data.draw(st.integers(1, 4))
    T = data.draw(st.sampled_from([2, 4, 6] if M <= 2 else [2, 4]))
    C = data.draw(st.integers(1, 2))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(
        min_value=-3, max_value=3, max_denominator=5))

    def rationals(*shape):
        n = math.prod(shape)
        return exact_array(data.draw(st.lists(entry, min_size=n, max_size=n)),
                           shape=shape)

    h0 = exact_array([0] * R) if data.draw(st.booleans()) else rationals(R)
    p = RacParams(w_in=[rationals(R, M)], w_hidden=[rationals(R, R)],
                  w_out=rationals(C, R), h0=[h0])
    c = data.draw(st.integers(1, C))
    rank = separation_rank(p, T, c=c)
    assert rank.method == "exact"
    assert rank.rank == _weights_rank(p, T, c)
    assert rank.rank <= R


def test_factored_rank_of_zero_h0_is_zero():
    p = draw_params(trial_rng(0, 2, 3, 4, 1, 0), 2, 3)
    p.h0 = [exact_array([0, 0, 0])]
    assert separation_rank(p, 4).rank == 0 == _weights_rank(p, 4)


def test_factored_rank_refusals():
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2)
    for T in (0, 3, -2):
        with pytest.raises(ShapeError):
            separation_rank(p, T)
    with pytest.raises(ParameterError, match="class index"):
        separation_rank(p, 4, c=2)


def test_factored_rank_budget_counts_each_half(monkeypatch):
    # at (M, R, T) = (2, 2, 4) the mid states are 2 x 4 and, with a column
    # basis of r = 2 start words, the end states are 2 x 2*4
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2)
    assert separation_rank(p, 4).rank == 2
    for budget, stage, required in ((7, "mid-sequence state array", 8),
                                    (15, "end-half state array", 16)):
        monkeypatch.setenv(GRID_BUDGET_ENV, str(budget))
        with pytest.raises(ResourceBudgetError, match=stage) as ei:
            separation_rank(p, 4)
        assert (ei.value.required, ei.value.budget) == (required, budget)
    monkeypatch.setenv(GRID_BUDGET_ENV, "16")
    assert separation_rank(p, 4).rank == 2


def test_factored_rank_beyond_the_weights_budget():
    # 3^16 = 43M weights-tensor entries, refused by build_weights_tensor;
    # the factored path builds 4 x 4*3^8 entries at most
    p = draw_params(trial_rng(0, 3, 4, 16, 1, 0), 3, 4)
    with pytest.raises(ResourceBudgetError):
        build_weights_tensor(p, T=16)
    assert separation_rank(p, 16).rank == 4


def _grid_rank(p, T, rel_tol=1e-12):
    """The start/end rank of the materialized identity-template grid."""
    return start_end_rank(build_grid_tensor(p, T=T).tensor, rel_tol)


@pytest.mark.parametrize("L,field", [(2, EXACT), (1, FLOAT), (2, FLOAT)])
def test_separation_rank_is_the_grid_rank_unless_exact_single_layer(L,
                                                                    field):
    for seed in range(3):
        p = draw_params(trial_rng(seed, 2, 2, 6, L, 0), 2, 2, L=L,
                        field=field)
        for rel_tol in (1e-12, 1e-3):
            assert separation_rank(p, 6, rel_tol=rel_tol) == \
                _grid_rank(p, 6, rel_tol)


def test_separation_rank_of_the_appendix_b_network():
    asg = AppendixBAssignment(3, 2, 8)
    rank = separation_rank(asg.params(), 8)
    assert rank == _grid_rank(asg.params(), 8)
    assert rank.rank == asg.bound == 5


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_separation_rank_of_exact_single_layer_builds_no_tensor(monkeypatch):
    monkeypatch.setattr(builders, "build_grid_tensor", _refuse)
    monkeypatch.setattr(builders, "build_weights_tensor", _refuse)
    p = draw_params(trial_rng(0, 2, 3, 6, 1, 0), 2, 3)
    assert separation_rank(p, 6).rank == 3


@pytest.mark.parametrize("L,field", [(1, EXACT), (2, EXACT), (2, FLOAT)])
def test_separation_rank_refuses_odd_T_before_any_build(L, field,
                                                        monkeypatch):
    monkeypatch.setattr(builders, "build_grid_tensor", _refuse)
    monkeypatch.setattr(builders, "_Frontier", _refuse)
    p = draw_params(trial_rng(0, 2, 2, 4, L, 0), 2, 2, L=L, field=field)
    for T in (1, 3, 0, -2):
        with pytest.raises(ShapeError, match="even"):
            separation_rank(p, T)


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_identity_grid_ranks_no_template_matrix(field, monkeypatch):
    # without an encoder the identity templates need no rank check
    monkeypatch.setattr(network, "rank_numeric", _refuse)
    monkeypatch.setattr(network, "rank_exact", _refuse)
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, field=field)
    assert build_grid_tensor(p, T=4).tensor.dims == (2,) * 4
