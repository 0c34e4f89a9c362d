"""Tensor-network graphs: construction, contraction, cuts, counting."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsep import (EXACT, FLOAT, Cell, DenseTensor, InvalidInputError,
                    ParameterError, RAC_PRODUCT, ResourceBudgetError, ShapeError, TemplateEncoder, attach_inputs, build_deep_tn,
                    build_mps, build_weights_tensor, contract,
                    count_basic_units, delta_tensor, draw_params, exact_array,
                    forward_deep, min_cut, multiset_coefficient,
                    no_clone_counterexample, trial_rng)
from racsep.tn import (CONTRACT_BUDGET_ENV, END, OUTPUT, START, Edge, OpenLeg,
                       TnGraph, dump_graph, parse_graph)


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
    # edge from a node to itself
    with pytest.raises(ShapeError):
        TnGraph({"a": t}, [Edge("a", 0, "a", 1, 2)], [])
    # start or end leg without a time index
    for side in ("start", "end"):
        with pytest.raises(ShapeError):
            TnGraph({"a": t, "b": v}, [Edge("a", 0, "b", 0, 2)],
                    [OpenLeg("a", 1, 2, None, side)])
    # leg of dimension 0
    empty = DenseTensor(np.zeros((2, 0), dtype=int), EXACT)
    with pytest.raises(ShapeError):
        TnGraph({"e": empty}, [], [OpenLeg("e", 0, 2, 1, "start"),
                                   OpenLeg("e", 1, 0, 2, "end")])


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


@pytest.mark.parametrize("value", ["1e3", "abc", "-1", " "])
def test_contract_refuses_a_malformed_budget(value, monkeypatch):
    # "1e3" used to raise int()'s ValueError
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    monkeypatch.setenv(CONTRACT_BUDGET_ENV, value)
    with pytest.raises(InvalidInputError, match=CONTRACT_BUDGET_ENV):
        contract(build_mps(p, 4))
    monkeypatch.setenv(CONTRACT_BUDGET_ENV, " 1000 ")
    contract(build_mps(p, 4))


def test_contract_budget_is_the_greedy_peak(monkeypatch):
    # merging the pair with the smallest result keeps every intermediate of
    # this 334-node graph at R^2 = 9 entries; any budget below that fails
    p = draw_params(trial_rng(5, 2, 3, 6, 3, 0), 2, 3, L=3)
    enc, seq = TemplateEncoder.identity(2), (1, 2, 1, 2, 1, 2)
    g = attach_inputs(build_deep_tn(p, 6), enc, seq)
    assert len(g.nodes) == 334
    monkeypatch.setenv(CONTRACT_BUDGET_ENV, "9")
    assert contract(g).entries[0] == forward_deep(p, RAC_PRODUCT, enc, seq)[0]
    monkeypatch.setenv(CONTRACT_BUDGET_ENV, "8")
    with pytest.raises(ResourceBudgetError) as ei:
        contract(g)
    assert (ei.value.required, ei.value.budget) == (9, 8)


def test_contract_merge_order_is_pinned():
    # the float draw of the graph above, as contracted by the rescanning
    # scheduler; another merge order rounds differently (a reversed
    # tie-break gives -0x1.63e3297d9cc9ap-97)
    p = draw_params(trial_rng(5, 2, 3, 6, 3, 0), 2, 3, L=3, field=FLOAT)
    enc, seq = TemplateEncoder.identity(2, FLOAT), (1, 2, 1, 2, 1, 2)
    g = attach_inputs(build_deep_tn(p, 6), enc, seq)
    assert len(g.nodes) == 334
    assert contract(g).entries[0].hex() == "-0x1.63e3297d9cc8bp-97"


@pytest.mark.parametrize("field", [EXACT, FLOAT])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_contract_matches_einsum_on_cycles_and_parallel_bonds(field, data):
    # connected graphs of 1-7 nodes whose extra edges close cycles or run
    # parallel to a bond, so one merge can leave a node sharing several
    # bonds with the merged tensor
    n = data.draw(st.integers(1, 7))
    dim = st.integers(1, 3)
    pairs = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        for _ in range(data.draw(st.integers(0, 4))):
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(0, n - 2))
            pairs.append((a, b + (b >= a)))
    legs = [[] for _ in range(n)]  # per node: (dim, einsum letter)
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

    def leg(v, d, letter):
        legs[v].append((d, letter))
        return len(legs[v]) - 1

    edges = []
    for a, b in pairs:
        d, letter = data.draw(dim), next(letters)
        edges.append(Edge(f"v{a}", leg(a, d, letter), f"v{b}",
                          leg(b, d, letter), d))
    sides = data.draw(st.lists(st.sampled_from([START, END, OUTPUT]),
                               min_size=int(n == 1), max_size=3))
    open_legs, order = [], []
    for i, side in enumerate(sides):
        v, d, letter = data.draw(st.integers(0, n - 1)), data.draw(dim), \
            next(letters)
        t = None if side == OUTPUT else data.draw(st.integers(1, 3))
        open_legs.append(OpenLeg(f"v{v}", leg(v, d, letter), d, t, side))
        order.append(((1, 0, i) if side == OUTPUT else (0, t, i), letter))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    arrays = []
    for v in range(n):
        shape = tuple(d for d, _ in legs[v])
        arrays.append(exact_array(rng.integers(-3, 4, shape))
                      if field == EXACT else rng.uniform(-1, 1, shape))
    g = TnGraph({f"v{v}": DenseTensor(a, field) for v, a in enumerate(arrays)},
                edges, open_legs)
    spec = ",".join("".join(l for _, l in legs[v]) for v in range(n)) + \
        "->" + "".join(l for _, l in sorted(order))
    got = contract(g).entries
    want = np.asarray(np.einsum(spec, *arrays)).reshape(-1)
    if field == EXACT:
        assert list(got) == list(want)
    else:
        scale = np.asarray(np.einsum(spec, *map(np.abs, arrays))).reshape(-1)
        assert np.all(np.abs(got - want) <= 1e-9 * scale)


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


@pytest.mark.parametrize("enc", [
    TemplateEncoder.identity(3),
    TemplateEncoder(np.array([[0.5, 1], [1, -0.25]]))],
    ids=["wrong-M", "wrong-field"])
def test_attach_inputs_rejects_mismatched_encoder(enc):
    # a float encoder on an exact graph used to give an exact score
    p = draw_params(trial_rng(7, 2, 2, 4, 2, 0), 2, 2, L=2)
    with pytest.raises(ParameterError):
        attach_inputs(build_deep_tn(p, 4), enc, (1, 2, 1, 2))


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
    # T = 0 gave a graph without input legs, T = -2 a RecursionError
    for T in (0, -2):
        with pytest.raises(ShapeError):
            build_deep_tn(p, T)


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


def _brute_min_cut(g):
    """The reference cut: every bipartition of the nodes, scored exactly."""
    starts = [o for o in g.open_legs if o.side == START]
    ends = [o for o in g.open_legs if o.side == END]
    if not starts or not ends:
        raise ShapeError("min_cut needs both start- and end-tagged open legs")
    node_ids = sorted(g.nodes)
    n = len(node_ids)
    idx = {nid: i for i, nid in enumerate(node_ids)}
    best_val, best_cut = None, None
    for mask in range(2 ** n):
        # bit set -> node on the end side
        val = 1
        cut = []
        for e in g.edges:
            if (mask >> idx[e.node_a] & 1) != (mask >> idx[e.node_b] & 1):
                val *= e.dim
                cut.append(e)
        for o in starts:
            if mask >> idx[o.node] & 1:
                val *= o.dim
                cut.append(o)
        for o in ends:
            if not (mask >> idx[o.node] & 1):
                val *= o.dim
                cut.append(o)
        if best_val is None or val < best_val:
            best_val, best_cut = val, cut
    return best_val, tuple(best_cut)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_min_cut_matches_enumeration(data):
    # connected graphs with parallel and dim-1 bonds, several legs per node,
    # nodes holding start and end legs, and output legs; "v10" sorts before
    # "v2", so the enumeration's bit order differs from insertion order
    n = data.draw(st.integers(1, 12))
    names = [f"v{i}" for i in range(n)]
    dim = st.integers(1, 4)
    pairs = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        for _ in range(data.draw(st.integers(0, n))):
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(0, n - 2))
            pairs.append((a, b + (b >= a)))
    legs = {v: [] for v in names}

    def leg(v, d):
        legs[v].append(d)
        return len(legs[v]) - 1

    edges = []
    for a, b in pairs:
        d = data.draw(dim)
        edges.append(Edge(names[a], leg(names[a], d), names[b],
                          leg(names[b], d), d))
    sides = [START, END] + data.draw(st.lists(
        st.sampled_from([START, END, OUTPUT]), max_size=5))
    open_legs = []
    for t, side in enumerate(sides, 1):
        v, d = names[data.draw(st.integers(0, n - 1))], data.draw(dim)
        open_legs.append(OpenLeg(v, leg(v, d), d,
                                 None if side == OUTPUT else t, side))
    # float views of one scalar hold every shape without allocating it
    nodes = {v: DenseTensor(np.broadcast_to(1.0, tuple(legs[v])), FLOAT)
             for v in names}
    g = TnGraph(nodes, edges, open_legs)
    assert min_cut(g) == _brute_min_cut(g)


def test_min_cut_past_the_enumeration_limit():
    # 42 nodes: the chain is cut at its middle bond
    p = draw_params(trial_rng(0, 2, 3, 40, 1, 0), 2, 3, L=1)
    assert min_cut(build_mps(p, 40)) == (3, (Edge("cell20", 2, "cell21", 0, 3),))
    p = draw_params(trial_rng(0, 2, 2, 4, 2, 0), 2, 2, L=2)
    g = build_deep_tn(p, 4)
    assert len(g.nodes) == 48
    val, cut = min_cut(g)
    assert val == math.prod(d.dim for d in cut)


def test_count_basic_units():
    assert count_basic_units(Cell(2, 2, 6, 3)).enumerated == 6
    assert count_basic_units(Cell(2, 2, 4, 1)).enumerated == 1
    assert count_basic_units(Cell(2, 2, 8, 2)).enumerated == 4
    for L in range(1, 5):
        for T in (2, 4, 6, 8):
            r = count_basic_units(Cell(2, 2, T, L))
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


SQUARE_DUMP = """racsep-tn v1
field exact
nodes 1
node t 2 2 2
1/1 2/1 3/1 4/1
edges 0
open 2
leg t 0 2 1 start
leg t 1 2 2 end
"""


@pytest.mark.parametrize("old,new", [
    ("edges 0\nopen 2\nleg t 0 2 1 start\nleg t 1 2 2 end\n",
     "edges 1\nedge t 0 t 1 2\nopen 0\n"),
    ("leg t 0 2 1 start", "leg t 0 2 - start"),
    ("leg t 1 2 2 end", "leg t 1 2 - end"),
], ids=["self-loop", "start-leg-without-time", "end-leg-without-time"])
def test_parse_graph_refuses_what_contract_cannot_handle(old, new):
    t = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 0, 2, 1, "start"),
                               OpenLeg("t", 1, 2, 2, "end")])
    assert dump_graph(g) == SQUARE_DUMP
    with pytest.raises(ShapeError):
        parse_graph(SQUARE_DUMP.replace(old, new))
