"""The one exact scalar form: a Python int when the value is an integer,
else a Fraction of Python ints with a denominator > 1 (see ``scalars``).

Every exact entry point hands its entries out in that form, whatever form
its inputs came in; arithmetic on them (the forward pass, contraction)
never leaves ints and Fractions.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from racsep import (EXACT, AppendixBAssignment, DenseTensor, InvalidInputError,
                    ParameterError, RAC_PRODUCT, RacParams, TemplateEncoder,
                    attach_inputs, build_deep_tn, build_grid_tensor,
                    build_weights_tensor, contract, draw_params, exact_array,
                    forward_deep, hadamard_power, neutral_h0, trial_rng)
from racsep.network import dump_params, parse_params
from racsep.ranks import solve_exact
from racsep.tensor import dump_tensor, parse_tensor
from racsep.tn import dump_graph, parse_graph
from scalars import canonical


def all_canonical(*arrays):
    return all(canonical(x) for a in arrays for x in np.ravel(a))


def arithmetic(x):
    """Whether x is an int or a Fraction, not a float, bool or numpy scalar."""
    return type(x) in (int, Fraction)


@pytest.mark.parametrize("raw,want", [
    (np.int64(-3), -3), ("6/2", 3), ("-7/1", -7), (Fraction(4, 2), 2),
    (Fraction(np.int64(2 ** 40)), 2 ** 40), ("1/3", Fraction(1, 3)),
    (Fraction(np.int64(3), np.int64(6)), Fraction(1, 2)), (True, 1)])
def test_exact_array_gives_each_value_its_one_form(raw, want):
    [x] = exact_array([raw])
    assert canonical(x) and x == want


def test_exact_tensor_of_an_object_array_goes_through_exact_array():
    # an object array used to be kept as it was, float included
    t = DenseTensor(np.array([0.5, Fraction(6, 3), np.int64(5)],
                             dtype=object), EXACT)
    assert list(t.entries) == [Fraction(1, 2), 2, 5]
    assert all_canonical(t.data)


@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 2))
@settings(deadline=None, max_examples=30)
def test_draws_are_canonical(seed, M, R, L):
    p = draw_params(trial_rng(seed, M, R, 4, L, 0), M, R, L=L)
    assert all_canonical(*p.w_in, *p.w_hidden, p.w_out, *p.h0)
    assert all(type(x) is int for x in p.w_in[0].reshape(-1))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_every_exact_output_is_canonical(data):
    L, M, R = (data.draw(st.integers(1, 2)) for _ in range(3))
    T = data.draw(st.sampled_from([2, 4]))
    rational = data.draw(st.booleans())
    entry = (st.fractions(min_value=-3, max_value=3, max_denominator=4)
             if rational else st.integers(-3, 3))
    # each array arrives as Python values, numpy int64 or "num/den" text
    form = data.draw(st.sampled_from(["value", "int64", "text"]))

    def array(*shape):
        vals = data.draw(st.lists(entry, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape))))
        if form == "text":
            vals = [f"{Fraction(v).numerator}/{Fraction(v).denominator}"
                    for v in vals]
        elif form == "int64" and not rational:
            vals = np.array(vals, dtype=np.int64)
        return exact_array(vals, shape)

    w_in = [array(R, M if l == 0 else R) for l in range(L)]
    w_hidden = [array(R, R) for _ in range(L)]
    explicit = data.draw(st.booleans())
    h0 = [array(R) for _ in range(L)] if explicit else None
    try:
        p = RacParams(w_in=w_in, w_hidden=w_hidden, w_out=array(2, R), h0=h0)
    except ParameterError:  # a singular hidden matrix has no neutral h0
        assume(False)
    assert all_canonical(*p.w_in, *p.w_hidden, p.w_out, *p.h0)
    if not explicit:
        assert all_canonical(*(neutral_h0(w) for w in p.w_hidden))
        assert all_canonical(solve_exact(p.w_hidden[0], p.w_in[0][:, 0]))

    q = parse_params(dump_params(p))
    assert all_canonical(*q.w_in, *q.w_hidden, q.w_out, *q.h0)
    grids = [build_grid_tensor(p, c=c, T=T).tensor for c in (1, 2)]
    if L == 1:
        grids.append(build_weights_tensor(p, T=T).tensor)
    for t in grids:
        assert t.field == EXACT and all_canonical(t.data)
        assert all_canonical(parse_tensor(dump_tensor(t)).data)
    g = build_deep_tn(p, T)
    h = parse_graph(dump_graph(g))
    assert all(all_canonical(t.data) for t in h.nodes.values())

    enc = TemplateEncoder.identity(M)
    seq = data.draw(st.lists(st.integers(1, M), min_size=T, max_size=T))
    scores = forward_deep(p, RAC_PRODUCT, enc, seq)
    assert all(map(arithmetic, scores))
    [got] = contract(attach_inputs(g, enc, seq)).entries
    assert arithmetic(got) and got == scores[0]
    assert all_canonical(hadamard_power(grids[0], 2).data)


def test_appendix_b_grid_holds_only_ints():
    # integer weights, all-ones h0 and identity templates: one denominator
    # of 1, so the frontier's integers are the grid's entries as they are
    grid = build_grid_tensor(AppendixBAssignment(3, 2, 8).params(), T=8)
    assert grid.tensor.dims == (3,) * 8
    assert all(type(x) is int for x in grid.tensor.entries)


@pytest.mark.parametrize("power", [2.5, 2.0, "2", 0, -1])
def test_hadamard_power_refuses_a_power_that_is_not_a_positive_integer(power):
    # 2.5 used to give an exact tensor of floats, refused much later by
    # rank_exact
    m = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    with pytest.raises(InvalidInputError, match="positive integer"):
        hadamard_power(m, power)
    assert list(hadamard_power(m, np.int64(3)).entries) == [1, 8, 27, 64]
