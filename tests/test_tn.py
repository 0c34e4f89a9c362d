"""Tensor-network graphs: construction, contraction, cuts, counting."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from racsep import (EXACT, FLOAT, DenseTensor, InvalidInputError, RAC_PRODUCT,
                    ResourceBudgetError, ShapeError, TemplateEncoder, attach_inputs, build_deep_tn,
                    build_mps, build_weights_tensor, contract,
                    count_basic_units, delta_tensor, draw_params, exact_array,
                    forward_deep, min_cut, multiset_coefficient,
                    no_clone_counterexample, trial_rng)
from racsep.tn import (CONTRACT_BUDGET_ENV, Edge, OpenLeg, TnGraph, dump_graph,
                       parse_graph)


def test_delta_tensor_superdiagonal():
    d = delta_tensor(3)
    for i, j, k in itertools.product(range(3), repeat=3):
        assert d[i, j, k] == Fraction(int(i == j == k))


def test_graph_validation():
    t = DenseTensor(np.eye(2, dtype=int), EXACT)
    v = DenseTensor(np.ones(2, dtype=int), EXACT)
    # unused leg
    with pytest.raises(ShapeError):
        TnGraph({"a": t, "b": v}, [Edge("a", 0, "b", 0, 2)], [])
    # dim mismatch
    w = DenseTensor(np.ones(3, dtype=int), EXACT)
    with pytest.raises(ShapeError):
        TnGraph({"a": t, "b": w}, [Edge("a", 0, "b", 0, 2)],
                [OpenLeg("a", 1, 2, 1, "start")])
    # leg used twice
    with pytest.raises(ShapeError):
        TnGraph({"a": t, "b": v}, [Edge("a", 0, "b", 0, 2)],
                [OpenLeg("a", 0, 2, 1, "start"), OpenLeg("a", 1, 2, 2, "end")])
    # disconnected
    with pytest.raises(ShapeError):
        TnGraph({"a": v, "b": v}, [],
                [OpenLeg("a", 0, 2, 1, "start"), OpenLeg("b", 0, 2, 2, "end")])


def test_contract_matrix_vector():
    m = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    v = DenseTensor(np.array([5, 6]), EXACT)
    g = TnGraph({"m": m, "v": v}, [Edge("m", 1, "v", 0, 2)],
                [OpenLeg("m", 0, 2, 1, "start")])
    out = contract(g)
    assert list(out.entries) == [Fraction(17), Fraction(39)]


def test_contract_chain_vs_nested_loops():
    rng = np.random.default_rng(2)
    a = exact_array(rng.integers(-3, 4, (2, 3)))
    b = exact_array(rng.integers(-3, 4, (3, 2)))
    c = exact_array(rng.integers(-3, 4, (2, 2)))
    g = TnGraph({"a": DenseTensor(a), "b": DenseTensor(b), "c": DenseTensor(c)},
                [Edge("a", 1, "b", 0, 3), Edge("b", 1, "c", 0, 2)],
                [OpenLeg("a", 0, 2, 1, "start"), OpenLeg("c", 1, 2, 2, "end")])
    out = contract(g)
    ref = a @ b @ c
    assert np.all(out.data == ref)


def test_contract_single_node():
    t = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 0, 2, 1, "start"),
                               OpenLeg("t", 1, 2, 2, "end")])
    assert contract(g).equals(t)


def test_contract_orders_legs_by_time():
    # open legs declared out of order must come back sorted by time index
    t = DenseTensor(np.arange(6).reshape(2, 3), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 1, 3, 2, "end"),
                               OpenLeg("t", 0, 2, 1, "start")])
    out = contract(g)
    assert out.dims == (2, 3)
    assert np.all(out.data == t.data)


def test_contract_budget(monkeypatch):
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    monkeypatch.setenv(CONTRACT_BUDGET_ENV, "4")
    with pytest.raises(ResourceBudgetError):
        contract(build_mps(p, 4))


def test_mps_contracts_to_weights_tensor():
    for seed in range(5):
        p = draw_params(trial_rng(seed, 2, 3, 4, 1, 0), 2, 3, L=1)
        w = build_weights_tensor(p, T=4).tensor
        assert contract(build_mps(p, 4)).equals(w)


def test_mps_open_class_leg():
    p = draw_params(trial_rng(1, 2, 2, 4, 1, 0), 2, 2, L=1, C=2)
    g = build_mps(p, 3, c=None)
    out = contract(g)
    assert out.dims == (2, 2, 2, 2)  # 3 time legs + class leg last
    w2 = build_weights_tensor(p, c=2, T=3).tensor
    assert np.all(out.data[..., 1] == w2.data)


def test_deep_tn_matches_forward_exact():
    enc = TemplateEncoder.identity(2)
    for seed in range(5):
        p = draw_params(trial_rng(seed, 2, 2, 4, 2, 0), 2, 2, L=2)
        g = build_deep_tn(p, 4)
        for seq in [(1, 1, 2, 2), (2, 1, 2, 1)]:
            val = contract(attach_inputs(g, enc, seq)).entries[0]
            assert val == forward_deep(p, RAC_PRODUCT, enc, seq)[0]


def test_deep_tn_matches_forward_float():
    enc = TemplateEncoder.identity(2, FLOAT)
    p = draw_params(trial_rng(0, 2, 2, 4, 2, 0), 2, 2, L=2, field=FLOAT)
    g = build_deep_tn(p, 4)
    for seq in [(1, 2, 1, 2), (2, 2, 2, 1)]:
        val = contract(attach_inputs(g, enc, seq)).entries[0]
        ref = forward_deep(p, RAC_PRODUCT, enc, seq)[0]
        assert val == pytest.approx(ref, rel=1e-10)


def test_deep_tn_depth3():
    enc = TemplateEncoder.identity(2)
    p = draw_params(trial_rng(1, 2, 2, 2, 3, 0), 2, 2, L=3)
    g = build_deep_tn(p, 2)
    val = contract(attach_inputs(g, enc, (2, 1))).entries[0]
    assert val == forward_deep(p, RAC_PRODUCT, enc, (2, 1))[0]


def test_deep_tn_budget():
    p = draw_params(trial_rng(0, 2, 2, 4, 2, 0), 2, 2, L=2)
    with pytest.raises(ResourceBudgetError):
        build_deep_tn(p, 10)  # T above DEEP_TN_MAX_T = 8
    p4 = draw_params(trial_rng(0, 2, 2, 4, 4, 0), 2, 2, L=4)
    with pytest.raises(ResourceBudgetError):
        build_deep_tn(p4, 4)  # L above DEEP_TN_MAX_L = 3


def test_min_cut_structural_value():
    # cut = min{R, M^(T/2)} independent of weight values
    for (M, R, T) in [(3, 2, 4), (2, 2, 4), (2, 16, 4), (2, 3, 6)]:
        p = draw_params(trial_rng(0, M, R, T, 1, 0), M, R, L=1)
        cut, edges = min_cut(build_mps(p, T))
        assert cut == min(R, M ** (T // 2))
        assert edges  # at least one edge crosses


def test_min_cut_single_edge():
    a = DenseTensor(np.arange(6).reshape(2, 3), EXACT)
    b = DenseTensor(np.arange(6).reshape(3, 2), EXACT)
    g = TnGraph({"a": a, "b": b}, [Edge("a", 1, "b", 0, 3)],
                [OpenLeg("a", 0, 2, 1, "start"), OpenLeg("b", 1, 2, 2, "end")])
    cut, edges = min_cut(g)
    assert cut == 2  # cutting one open leg (dim 2) beats the dim-3 bond


def test_min_cut_requires_both_sides():
    t = DenseTensor(np.ones(2, dtype=int), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 0, 2, 1, "start")])
    with pytest.raises(ShapeError):
        min_cut(g)


def test_count_basic_units():
    assert count_basic_units(3, 6).enumerated == 6
    assert count_basic_units(1, 4).enumerated == 1
    assert count_basic_units(2, 8).enumerated == 4
    for L in range(1, 5):
        for T in (2, 4, 6, 8):
            r = count_basic_units(L, T)
            assert r.match
            assert r.closed_form == multiset_coefficient(T // 2, L - 1)


def test_no_clone():
    for P in (2, 3, 4):
        r = no_clone_counterexample(P)
        assert r.basis_cloned and not r.ones_cloned
    r1 = no_clone_counterexample(1)
    assert r1.basis_cloned and r1.ones_cloned


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_graph_serialization_roundtrip(field):
    p = draw_params(trial_rng(2, 2, 2, 4, 1, 0), 2, 2, L=1, field=field)
    g = build_mps(p, 4)
    h = parse_graph(dump_graph(g))
    assert dump_graph(h) == dump_graph(g)
    assert contract(h).equals(contract(g))


def _edit(pos, new):
    """Replaces line ``pos`` of a dumped graph (deletes it when new is None)."""
    return lambda lines: lines[:pos] + ([] if new is None else [new]) \
        + lines[pos + 1:]


# edits of a dumped float MPS chain, T=4: line 3 heads node cell1 and line 4
# holds its 8 entries, line 12 holds the h0 entries, 16 is the first edge
# and 22 the first open leg
@pytest.mark.parametrize("edit", [
    lambda lines: lines[:2],
    _edit(1, "field bogus"),
    _edit(4, " ".join(["nan"] * 8)),
    _edit(3, "node cell1 3 2 2"),
    _edit(12, None),
    _edit(16, "edge h0 0 cell1 0"),
    _edit(22, "leg cell1 1 2 1"),
    _edit(22, "leg cell1 1 2 1 middle"),
], ids=["truncated", "unknown-field", "nan-entry", "dims-vs-order",
        "missing-entries", "short-edge", "short-leg", "bad-side"])
def test_parse_graph_rejects_malformed(edit):
    p = draw_params(trial_rng(2, 2, 2, 4, 1, 0), 2, 2, L=1, field=FLOAT)
    lines = dump_graph(build_mps(p, 4)).splitlines()
    assert lines[3] == "node cell1 3 2 2 2" and lines[11] == "node h0 1 2"
    with pytest.raises(InvalidInputError):
        parse_graph("\n".join(edit(lines)))
