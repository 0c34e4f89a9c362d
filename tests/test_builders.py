"""Weights tensor and grid tensor builders, and the start/end rank of a
network (:func:`separation_rank`)."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from racsep import (EXACT, FLOAT, Cell, DenseTensor, appendix_b_params,
                    InvalidInputError, ParameterError, RAC_PRODUCT, RacParams,
                    ResourceBudgetError, ShapeError, TemplateEncoder,
                    attach_inputs, build_deep_tn, build_grid_tensor,
                    build_mps, build_weights_tensor, check_claim1_equality,
                    contract, draw_params, draw_trials, exact_array,
                    forward_deep, grid_budget, matricize,
                    multiset_coefficient, rank_exact, rank_numeric,
                    separation_rank, step_deep, trial_rng)
from racsep import builders, network
from racsep.builders import GRID_BUDGET_ENV
from racsep.errors import env_budget
from racsep.ranks import independent_mod_p
from scalars import canonical

# a failing exact L = 3 example grows big integers, and shrinking it took
# minutes; without the shrink phase a failure reports the first example
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def test_weights_tensor_matches_forward_on_every_sequence():
    # the defining property: A_{d1..dT} equals the network output on the
    # template sequence (d1..dT) with identity encoder and neutral h0
    for seed in range(5):
        p = draw_params(trial_rng(seed, 2, 3, 4, 1, 0), 2, 3, L=1)
        w = build_weights_tensor(p, T=4)
        enc = TemplateEncoder.identity(2)
        for d in itertools.product([1, 2], repeat=4):
            idx = tuple(x - 1 for x in d)
            assert w[idx] == forward_deep(p, RAC_PRODUCT, enc, d)[0]


def test_weights_tensor_r1_rank_one():
    p = RacParams(w_in=[exact_array([[2, 3]])], w_hidden=[exact_array([[5]])],
                  w_out=exact_array([[1]]))
    w = build_weights_tensor(p, T=4)
    m = matricize(w)
    assert rank_exact(m).rank == 1


def test_weights_tensor_class_selection():
    rng = trial_rng(3, 2, 2, 4, 1, 0)
    p = draw_params(rng, 2, 2, L=1, C=2)
    w1 = build_weights_tensor(p, c=1, T=2)
    w2 = build_weights_tensor(p, c=2, T=2)
    enc = TemplateEncoder.identity(2)
    out = forward_deep(p, RAC_PRODUCT, enc, [2, 1])
    assert w1[1, 0] == out[0]
    assert w2[1, 0] == out[1]
    with pytest.raises(ParameterError):
        build_weights_tensor(p, c=3, T=2)


def test_weights_tensor_requires_shallow_and_valid_T():
    deep = draw_params(trial_rng(0, 2, 2, 4, 2, 0), 2, 2, L=2)
    with pytest.raises(ParameterError):
        build_weights_tensor(deep, T=4)
    shallow = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    # the grid under identity templates, so of any order T >= 1
    assert build_weights_tensor(shallow, T=1).equals(
        build_grid_tensor(shallow, T=1))
    for T in (0, -3):  # used to give the 1-entry empty-sequence score
        with pytest.raises(ShapeError):
            build_weights_tensor(shallow, T=T)
        with pytest.raises(ShapeError):
            build_grid_tensor(deep, T=T)


_STEP_BUILDERS = {
    "build_grid_tensor": lambda p, T: build_grid_tensor(p, T=T),
    "build_weights_tensor": lambda p, T: build_weights_tensor(p, T=T),
    "build_mps": build_mps,
    "build_deep_tn": build_deep_tn,
}


@pytest.mark.parametrize("T", [0, -3, 2.0, True, "2", None])
@pytest.mark.parametrize("name", _STEP_BUILDERS)
def test_builders_refuse_a_step_count_that_is_not_an_integer_ge_1(name, T):
    # 2.0 used to raise a bare TypeError (weights tensor) or a misleading
    # time-index error (deep graph), and True built an order-1 grid
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    with pytest.raises(ShapeError, match="T must be an integer >= 1"):
        _STEP_BUILDERS[name](p, T)


def _fold(w, F):
    """The tensor ``w`` with every mode multiplied by the template matrix F:
    the grid tensor of Claim 1, sum_d w_d prod_i F[s_i, d_i]."""
    a = w.data
    for _ in range(w.order):
        a = np.tensordot(a, F, axes=([0], [1]))
    return DenseTensor(a, w.field)


def test_score_from_tensor_general_encoder():
    # with a non-identity encoder the score is the weights tensor with every
    # mode multiplied by F (Claim 1), which is the grid under F
    p = draw_params(trial_rng(7, 2, 2, 4, 1, 0), 2, 2, L=1)
    enc = TemplateEncoder(exact_array([[1, 2], [1, -1]]))
    grid = _fold(build_weights_tensor(p, T=3), enc.F)
    assert grid.equals(build_grid_tensor(p, enc=enc, T=3))
    for seq in itertools.product([1, 2], repeat=3):
        assert (grid[tuple(s - 1 for s in seq)]
                == forward_deep(p, RAC_PRODUCT, enc, seq)[0])


@pytest.mark.parametrize("enc", [TemplateEncoder.identity(3),
                                 TemplateEncoder.identity(2, FLOAT)],
                         ids=["wrong-M", "wrong-field"])
def test_separation_rank_rejects_mismatched_encoder(enc):
    p = draw_params(trial_rng(7, 2, 2, 4, 1, 0), 2, 2, L=1)
    with pytest.raises(ParameterError, match="encoder"):
        separation_rank(p, 4, enc=enc)


def test_grid_tensor_matches_forward_deep():
    p = draw_params(trial_rng(4, 2, 2, 4, 2, 0), 2, 2, L=2)
    g = build_grid_tensor(p, T=3)
    enc = TemplateEncoder.identity(2)
    for d in itertools.product([1, 2], repeat=3):
        idx = tuple(x - 1 for x in d)
        assert g[idx] == forward_deep(p, RAC_PRODUCT, enc, d)[0]


def test_grid_tensor_float_field():
    p = draw_params(trial_rng(4, 2, 2, 4, 2, 0), 2, 2, L=2, field=FLOAT)
    g = build_grid_tensor(p, T=4)
    enc = TemplateEncoder.identity(2, FLOAT)
    val = forward_deep(p, RAC_PRODUCT, enc, [1, 2, 2, 1])[0]
    assert g[0, 1, 1, 0] == pytest.approx(val, rel=1e-12)


def test_grid_tensor_custom_encoder():
    p = draw_params(trial_rng(8, 2, 2, 4, 1, 0), 2, 2, L=1)
    enc = TemplateEncoder(exact_array([[2, 1], [0, 1]]))
    g = build_grid_tensor(p, enc=enc, T=2)
    assert g[1, 0] == forward_deep(p, RAC_PRODUCT, enc, [2, 1])[0]


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
    # the frontier's last state array is R x M^T = 2 x 16
    assert ei.value.required == 32 and ei.value.budget == 8
    assert "grid tensor state array" in str(ei.value)
    build_grid_tensor(p, T=2)  # 2 x 4 entries fits


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


@pytest.mark.parametrize("field", [EXACT, FLOAT])
@pytest.mark.parametrize("L,T", [(1, 8), (2, 8), (3, 6)])
def test_grid_budget_is_read_once_per_call(L, T, field, monkeypatch):
    # every stage of a call checks one reading: with w_out = 0 the exact
    # L = 1 rank walks mod p and then exactly, and this exact L = 2 draw's
    # 16 state classes outnumber K = 10, so its lifted states are checked
    reads = []

    def spy(name, default):
        reads.append(name)
        return env_budget(name, default)

    monkeypatch.setattr(builders, "env_budget", spy)
    p = draw_params(trial_rng(1, 2, 2, T, L, 0), 2, 2, L=L, field=field)
    zero = RacParams(w_in=p.w_in, w_hidden=p.w_hidden, w_out=0 * p.w_out,
                     h0=p.h0)
    for net in (p, zero):
        for call in (separation_rank, build_grid_tensor):
            reads.clear()
            call(net, T=T)
            assert reads == [GRID_BUDGET_ENV]


def test_weights_budget_enforced(monkeypatch):
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    monkeypatch.setenv(GRID_BUDGET_ENV, "15")
    with pytest.raises(ResourceBudgetError) as ei:
        build_weights_tensor(p, T=4)
    assert ei.value.required == 32 and ei.value.budget == 15
    assert "grid tensor state array" in str(ei.value)
    build_weights_tensor(p, T=2)  # 2 x 4 entries fits


def test_grid_equals_weights_tensor_identity_encoder():
    # single-layer, identity templates: the two constructions coincide
    for seed in range(3):
        p = draw_params(trial_rng(seed, 3, 2, 4, 1, 0), 3, 2, L=1)
        g = build_grid_tensor(p, T=4)
        w = build_weights_tensor(p, T=4)
        assert g.equals(w)


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
    folded = _fold(build_weights_tensor(p, T=T), F)
    grid = build_grid_tensor(p, enc=enc, T=T)
    mps = build_mps(p, T)
    for d in itertools.product(range(1, M + 1), repeat=T):
        idx = tuple(x - 1 for x in d)
        want = forward_deep(p, RAC_PRODUCT, enc, d)[0]
        assert folded[idx] == want
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
    grid = build_grid_tensor(p, enc=enc, T=T)

    # the same network in floats; the frontier sums in another order than
    # the forward pass, so the two agree to rounding of the |terms| bound
    def to_float(a):
        return a.astype(np.float64)

    q = RacParams(w_in=list(map(to_float, p.w_in)),
                  w_hidden=list(map(to_float, p.w_hidden)),
                  w_out=to_float(p.w_out), h0=list(map(to_float, p.h0)))
    fenc = TemplateEncoder(to_float(F))
    fgrid = build_grid_tensor(q, enc=fenc, T=T)
    assert fgrid.field == FLOAT
    for d in itertools.product(range(1, M + 1), repeat=T):
        idx = tuple(x - 1 for x in d)
        assert grid[idx] == forward_deep(p, RAC_PRODUCT, enc, d)[0]
        assert canonical(grid[idx])
        want = forward_deep(q, RAC_PRODUCT, fenc, d)[0]
        assert abs(fgrid[idx] - want) <= 1e-12 * float(_abs_forward(p, F, d))


def _weights_rank(p, T, c=1):
    """The start/end rank of the materialized weights tensor."""
    return rank_exact(matricize(build_weights_tensor(p, c=c, T=T))).rank


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


def _grid_rank(p, T, rel_tol=1e-12, c=1, enc=None):
    """The start/end rank of the materialized grid under ``enc``."""
    m = matricize(build_grid_tensor(p, enc, c, T))
    return rank_exact(m) if m.field == EXACT else rank_numeric(m, rel_tol)


@pytest.mark.parametrize("L,field", [(2, EXACT), (1, FLOAT), (2, FLOAT)])
def test_separation_rank_is_the_grid_rank_unless_exact_single_layer(L,
                                                                    field):
    for seed in range(3):
        p = draw_params(trial_rng(seed, 2, 2, 6, L, 0), 2, 2, L=L,
                        field=field)
        for rel_tol in (1e-12, 1e-3):
            assert separation_rank(p, 6, rel_tol=rel_tol) == \
                _grid_rank(p, 6, rel_tol)


@settings(deadline=None, max_examples=60, phases=NO_SHRINK)
@given(st.data())
def test_separation_rank_is_the_rank_of_the_materialized_grid(data):
    # one frontier walk for every network: rational weights, an explicit h0
    # over a possibly singular W_h or the neutral one, L 1-3, both fields,
    # either class and identity or rational templates give the whole
    # RankReport of the materialized grid
    L = data.draw(st.integers(1, 3))
    M = data.draw(st.integers(1, 3))
    R = data.draw(st.integers(1, 3))
    T = data.draw(st.sampled_from([2, 4, 6] if M <= 2 else [2, 4]))
    c = data.draw(st.integers(1, 2))

    def rationals(*shape):
        n = math.prod(shape)
        return exact_array(data.draw(st.lists(st.fractions(
            min_value=-3, max_value=3, max_denominator=5),
            min_size=n, max_size=n)), shape=shape)

    w_in = [rationals(R, M if l == 0 else R) for l in range(L)]
    w_hidden = [rationals(R, R) for _ in range(L)]
    h0 = None
    if data.draw(st.booleans()):
        h0 = [rationals(R) for _ in range(L)]
        if data.draw(st.booleans()):
            w_hidden[-1][-1] = 0  # singular: no neutral h0 exists
    try:
        p = RacParams(w_in=w_in, w_hidden=w_hidden, w_out=rationals(2, R),
                      h0=h0)
    except ParameterError:  # a singular hidden matrix has no neutral h0
        assume(False)
    if data.draw(st.booleans()):
        def to_float(a):
            return a.astype(np.float64)

        p = RacParams(w_in=list(map(to_float, p.w_in)),
                      w_hidden=list(map(to_float, p.w_hidden)),
                      w_out=to_float(p.w_out), h0=list(map(to_float, p.h0)))
    rel_tol = data.draw(st.sampled_from([1e-12, 1e-6, 1e-3]))
    enc = None
    if data.draw(st.booleans()):
        F = rationals(M, M)
        assume(rank_exact(F).rank == M)
        enc = TemplateEncoder(F if p.field == EXACT else F.astype(np.float64))
    assert separation_rank(p, T, c, rel_tol, enc) == \
        _grid_rank(p, T, rel_tol, c, enc)


@pytest.fixture
def advance_widths(monkeypatch):
    """The number of start words each _Frontier.advance call starts from."""
    widths = []
    advance = builders._Frontier.advance

    def spy(self, S, D, t, what):
        widths.append(S[0].shape[1])
        return advance(self, S, D, t, what)

    monkeypatch.setattr(builders._Frontier, "advance", spy)
    return widths


def test_separation_rank_of_the_appendix_b_network(advance_widths):
    # 81 start words carry 15 classes of mid-sequence states, but their
    # lifted states h2 (x) Sym^4(h1) have K = 2 * 5 = 10 coordinates and
    # rank 5: the end half advances 5 start words
    p = appendix_b_params(3, 2, 8)
    rank = separation_rank(p, 8)
    assert advance_widths == [1, 5]
    assert rank == _grid_rank(p, 8)
    assert rank.rank == multiset_coefficient(2, 4) == 5


@pytest.mark.parametrize("T,bound", [(10, 6), (12, 7)])
def test_separation_rank_of_the_appendix_b_network_at_longer_t(
        T, bound, advance_widths):
    # a grid of 3^T entries is too large to rank here; the bound is the
    # depth-2 law's, and the end half advances one start word per unit
    assert (separation_rank(appendix_b_params(3, 2, T), T).rank
            == multiset_coefficient(2, T // 2) == bound)
    assert advance_widths == [1, bound]


def test_separation_rank_of_the_appendix_b_network_at_3_3_8(advance_widths):
    # W_h = I, so a start word's mid-sequence state depends only on its
    # multiset of symbols: 81 start words of length 4 over 3 symbols carry
    # multiset(3, 4) = 15 states, fewer than K = 3 * 15 = 45, so the end
    # half advances one word each and no lifted array is built
    assert (separation_rank(appendix_b_params(3, 3, 8), 8).rank == 15
            == multiset_coefficient(3, 4))
    assert advance_widths == [1, 15]


def test_deep_rank_budget_counts_the_lifted_states(monkeypatch):
    # at (M, R, T) = (2, 2, 8) this draw's 16 start words have 16 state
    # classes, more than K = 2 * multiset(2, 4) = 10: the mid states are
    # 2 x 16, the lifted ones 10 x 16, and the 10 kept words' end states
    # 2 x 10*16
    p = draw_params(trial_rng(1, 2, 2, 8, 2, 0), 2, 2, L=2)
    for budget, stage, required in ((31, "mid-sequence state array", 32),
                                    (159, "lifted mid-sequence state array",
                                     160),
                                    (319, "end-half state array", 320)):
        monkeypatch.setenv(GRID_BUDGET_ENV, str(budget))
        with pytest.raises(ResourceBudgetError, match=stage) as ei:
            separation_rank(p, 8)
        assert (ei.value.required, ei.value.budget) == (required, budget)
    monkeypatch.setenv(GRID_BUDGET_ENV, "320")
    assert separation_rank(p, 8).rank == 10


@settings(deadline=None, max_examples=150, phases=NO_SHRINK)
@given(st.data())
def test_deep_state_classes_keep_the_rank_of_the_materialized_grid(data):
    # identity and diagonal hidden matrices make mid-sequence states
    # collide projectively, and zero entries of an explicit h0 make some
    # layers' states zero: the kept start words still give the grid's rank
    L = data.draw(st.integers(2, 3))
    M = data.draw(st.integers(1, 3))
    R = data.draw(st.integers(1, 3))
    T = data.draw(st.sampled_from([2, 4, 6] if M <= 2 else [2, 4]))

    def ints(*shape, lo=-2, hi=2):
        n = math.prod(shape)
        return exact_array(data.draw(st.lists(
            st.integers(lo, hi), min_size=n, max_size=n)), shape=shape)

    def hidden():
        kind = data.draw(st.sampled_from(["identity", "diagonal", "general"]))
        if kind == "identity":
            return exact_array(np.eye(R, dtype=int))
        return np.diag(ints(R)) if kind == "diagonal" else ints(R, R)

    p = RacParams(w_in=[ints(R, M if l == 0 else R) for l in range(L)],
                  w_hidden=[hidden() for _ in range(L)], w_out=ints(1, R),
                  h0=[ints(R, lo=-1, hi=1) for _ in range(L)])
    rank = separation_rank(p, T)
    assert rank == _grid_rank(p, T)
    # the proven prefix bound: G = Phi C through the U_L coordinates of the
    # lifted mid-sequence state, U_2 = K = R multiset(R, T/2)
    assert rank.rank <= math.prod(
        multiset_coefficient(R, multiset_coefficient(T // 2, k))
        for k in range(L))


@settings(deadline=None, max_examples=40, phases=NO_SHRINK)
@given(st.data())
def test_lifted_state_basis_keeps_the_rank_of_the_materialized_grid(data):
    # cells where M^(T/2) start words exceed K = R multiset(R, T/2) lifted
    # coordinates; nonzero weights keep the states apart, so the classes
    # outnumber K and the walk keeps a column basis of the lifted states.
    # R = 1 is left out: its scalar states fall into one class
    M, R, T = data.draw(st.sampled_from([(3, 2, 4), (2, 2, 8), (3, 2, 6),
                                         (2, 2, 10)]))

    def ints(*shape, nonzero=True):
        n = math.prod(shape)
        values = st.integers(-3, 3).filter(bool) if nonzero \
            else st.integers(-1, 1)
        return exact_array(data.draw(st.lists(
            values, min_size=n, max_size=n)), shape=shape)

    p = RacParams(w_in=[ints(R, M), ints(R, R)],
                  w_hidden=[ints(R, R), ints(R, R)], w_out=ints(1, R),
                  h0=[ints(R, nonzero=False) for _ in range(2)])
    assert separation_rank(p, T) == _grid_rank(p, T)


def _refuse(*args, **kwargs):
    raise AssertionError("called")


def test_separation_rank_of_exact_single_layer_builds_no_tensor(monkeypatch):
    # nor of any other network: exact and float, L = 1 and 2, all walk the
    # frontier, and no racsep module's tensor builder or matricization runs;
    # nor does Claim 1's check, which ranks two walks
    nets = [draw_params(trial_rng(0, 2, 3, 6, L, 0), 2, 3, L=L, field=field)
            for field in (EXACT, FLOAT) for L in (1, 2)]
    want = [_grid_rank(p, 6) for p in nets]
    for module in [m for name, m in sys.modules.items()
                   if name == "racsep" or name.startswith("racsep.")]:
        for name in ("build_grid_tensor", "build_weights_tensor",
                     "matricize"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    assert [separation_rank(p, 6) for p in nets] == want
    assert want[0].rank == 3
    rep = check_claim1_equality(Cell(3, 3, 6), trials=2, seed=0)
    assert rep.passed and [r.observed for r in rep.rows] == ["3", "3"]


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
    assert build_grid_tensor(p, T=4).dims == (2,) * 4


def _rank_mod_p(p, T, c=1, enc=None):
    """The rank mod p of the single-layer network p's start/end
    matricization, from its mod-p frontier walk alone: at most R start
    words whose mid-sequence states are independent mod p are kept."""
    net = builders._Frontier(p, builders._templates(p, enc), c)
    G = net.mod_p().walk(Cell(p.M, p.R, T),
                         lambda S: independent_mod_p(S[0].T.tolist(), p.R))
    return len(independent_mod_p(G.tolist()))


@settings(deadline=None, max_examples=100, phases=NO_SHRINK)
@given(st.data())
def test_rank_mod_p_never_exceeds_the_exact_rank(data):
    # rational weights (some with the prime as denominator or numerator),
    # zero rows, an explicit h0 or the neutral one, and identity or
    # rational templates: the walk mod p never finds more than the rank
    # over Q, and where it meets min{R, M^(T/2)} that is the rank
    P = builders.PRIME
    M = data.draw(st.integers(1, 3))
    R = data.draw(st.integers(1, 4))
    T = data.draw(st.sampled_from([2, 4, 6] if M <= 2 else [2, 4]))
    entry = st.one_of(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=5),
                      st.sampled_from([Fraction(1, P), Fraction(P, 2), P]))

    def rationals(*shape):
        n = math.prod(shape)
        a = exact_array(data.draw(st.lists(entry, min_size=n, max_size=n)),
                        shape=shape)
        if a.ndim == 2 and data.draw(st.booleans()):
            a[data.draw(st.integers(0, shape[0] - 1))] = 0  # a zero row
        return a

    h0 = [rationals(R)] if data.draw(st.booleans()) else None
    try:
        p = RacParams(w_in=[rationals(R, M)], w_hidden=[rationals(R, R)],
                      w_out=rationals(2, R), h0=h0)
    except ParameterError:  # a singular hidden matrix has no neutral h0
        assume(False)
    enc = None
    if data.draw(st.booleans()):
        F = rationals(M, M)
        assume(rank_exact(F).rank == M)
        enc = TemplateEncoder(F)
    c = data.draw(st.integers(1, 2))
    exact = _grid_rank(p, T, c=c, enc=enc)
    assert _rank_mod_p(p, T, c, enc) <= exact.rank
    assert separation_rank(p, T, c, enc=enc) == exact


def test_int64_guard_is_exact_at_its_boundary():
    # 2048 products of two residues below p < 2^26 stay below 2^63, 2049
    # may not; numpy int64 matmul would wrap around without a warning
    P = builders.PRIME
    assert 2048 * (P - 1) ** 2 < 2 ** 63 <= 2049 * (P - 1) ** 2
    assert builders._int64_safe(2048) and not builders._int64_safe(2049)
    assert builders._int64_safe(1)


def _spy_exact_walk(monkeypatch):
    """Logs each call of the exact walk's rank_exact and column_basis."""
    calls = []
    for name in ("rank_exact", "column_basis"):
        def spy(m, _name=name, _kernel=getattr(builders, name)):
            calls.append(_name)
            return _kernel(m)
        monkeypatch.setattr(builders, name, spy)
    return calls


def test_generic_single_layer_rank_is_certified_mod_p(monkeypatch):
    # 8 start words, R = 3: the exact walk would take a column basis of
    # their states and rank G; the walk mod p reaches min{R, M^(T/2)} = 3
    calls = _spy_exact_walk(monkeypatch)
    [(_, p)] = draw_trials(7, Cell(2, 3, 6), 1, EXACT)
    assert separation_rank(p, 6) == _grid_rank(p, 6)
    assert separation_rank(p, 6).rank == 3 and calls == []
    # w_out = 0: rank 0 mod p is below the bound, so the exact walk runs
    zero = RacParams(w_in=p.w_in, w_hidden=p.w_hidden,
                     w_out=exact_array([[0, 0, 0]]), h0=p.h0)
    assert separation_rank(zero, 6).rank == 0
    assert calls == ["column_basis", "rank_exact"]


def test_networks_past_the_int64_guard_walk_exactly(monkeypatch):
    widths = []

    def narrow(width):
        widths.append(width)
        return False

    monkeypatch.setattr(builders, "_int64_safe", narrow)
    calls = _spy_exact_walk(monkeypatch)
    [(_, p)] = draw_trials(7, Cell(3, 2, 4), 1, EXACT)
    assert separation_rank(p, 4).rank == 2 == _grid_rank(p, 4).rank
    # every int64 product sums over R = 2 hidden units; W_i F^T, the one
    # product over the M = 3 templates, is taken in Python integers
    assert widths == [2] and calls == ["column_basis", "rank_exact"]


@settings(deadline=None, max_examples=60, phases=NO_SHRINK)
@given(st.data())
def test_mod_p_walk_is_the_integer_walk_reduced_mod_p(data):
    # the Python-integer walk is the reference: at every depth, over
    # rational weights and templates and entries far beyond int64 once
    # multiplied, the int64 walk's states are its states reduced mod p
    P = builders.PRIME
    L, M, R = (data.draw(st.integers(1, 3)) for _ in range(3))
    T = data.draw(st.integers(1, 4))
    entry = st.one_of(st.fractions(min_value=-3, max_value=3,
                                   max_denominator=5),
                      st.integers(-2 ** 70, 2 ** 70),
                      st.sampled_from([P - 1, -P + 1, Fraction(1, P)]))

    def exact(*shape):
        n = math.prod(shape)
        return exact_array(data.draw(st.lists(entry, min_size=n, max_size=n)),
                           shape=shape)

    p = RacParams(w_in=[exact(R, M if l == 0 else R) for l in range(L)],
                  w_hidden=[exact(R, R) for _ in range(L)],
                  w_out=exact(1, R), h0=[exact(R) for _ in range(L)])
    net = builders._Frontier(p, exact(M, M), 1)
    S, _ = net.advance(net.h0, net.D0, T, "states")
    net_p = net.mod_p()
    mod, _ = net_p.advance(net_p.h0, net_p.D0, T, "states")
    for s, m in zip(S, mod):
        assert m.dtype == np.int64
        assert ((s % P).astype(np.int64) == m).all()
