"""Tensor-network graphs: construction, contraction, cuts, counting."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racsep import (EXACT, FLOAT, DenseTensor, InvalidInputError,
                    ParameterError, RAC_PRODUCT, ResourceBudgetError, ShapeError, TemplateEncoder, attach_inputs, build_deep_tn,
                    build_mps, build_weights_tensor, contract,
                    delta_tensor, draw_params, exact_array,
                    forward_deep, min_cut, multiset_coefficient,
                    no_clone_counterexample, tn, trial_rng)
from racsep.errors import GRID_BUDGET_ENV
from racsep.tn import (END, START, Edge, OpenLeg, TnGraph,
                       dump_graph, parse_graph)


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
                [OpenLeg("a", 1, 2, 1)])
    # leg used twice
    with pytest.raises(ShapeError):
        TnGraph({"a": t, "b": v}, [Edge("a", 0, "b", 0, 2)],
                [OpenLeg("a", 0, 2, 1), OpenLeg("a", 1, 2, 2)])
    # disconnected
    with pytest.raises(ShapeError):
        TnGraph({"a": v, "b": v}, [],
                [OpenLeg("a", 0, 2, 1), OpenLeg("b", 0, 2, 2)])
    # edge from a node to itself
    with pytest.raises(ShapeError):
        TnGraph({"a": t}, [Edge("a", 0, "a", 1, 2)], [])
    # a time index that is not an integer >= 1: time 0 used to be fed the
    # last symbol of the sequence, and True was dumped as "True"
    for time in (0, -1, None, 1.0, True):
        with pytest.raises(ShapeError, match="time index"):
            TnGraph({"a": t, "b": v}, [Edge("a", 0, "b", 0, 2)],
                    [OpenLeg("a", 1, 2, time)])
    # no nodes: contract raised a bare ValueError, dump_graph StopIteration
    with pytest.raises(ShapeError, match="node"):
        TnGraph({}, [], [])
    # leg of dimension 0
    empty = DenseTensor(np.zeros((2, 0), dtype=int), EXACT)
    with pytest.raises(ShapeError):
        TnGraph({"e": empty}, [], [OpenLeg("e", 0, 2, 1),
                                   OpenLeg("e", 1, 0, 2)])


@pytest.mark.parametrize("nodes,edge,leg", [
    ({"a": "t", "b": "v"}, ("a", 0.0, "b", 0, 2), ("a", 1, 2)),
    ({"a": "t", "b": "v"}, ("a", "0", "b", 0, 2), ("a", 1, 2)),
    ({"a": "t", "b": "v"}, ("a", False, "b", 0, 2), ("a", 1, 2)),
    ({"a": "t", "b": "v"}, ("a", 0, "b", 0, 2), ("a", 1.0, 2)),
    ({"a": "t", "b": "v"}, ("a", 0, "b", 0, 2.0), ("a", 1, 2)),
    ({"a": "t", "b": "v"}, ("a", 0, "b", 0, 2), ("a", 1, 2.0)),
    ({"a b": "t", "b": "v"}, ("a b", 0, "b", 0, 2), ("a b", 1, 2)),
    ({"": "t", "b": "v"}, ("", 0, "b", 0, 2), ("", 1, 2)),
    ({"a\nb": "t", "b": "v"}, ("a\nb", 0, "b", 0, 2), ("a\nb", 1, 2)),
    ({1: "t", "b": "v"}, (1, 0, "b", 0, 2), (1, 1, 2)),
    ({1: "t", 2: "v"}, (1, 0, 2, 0, 2), (1, 1, 2)),
    ({"a": "t", "b": "v"}, (["a"], 0, "b", 0, 2), ("a", 1, 2)),
], ids=["float-leg", "str-leg", "bool-leg", "float-open-leg", "float-dim",
        "float-open-dim", "id-with-space", "empty-id", "id-with-newline",
        "int-id", "int-ids", "list-id"])
def test_graph_refuses_what_the_text_format_cannot_carry(nodes, edge, leg):
    # a float or str leg used to raise a bare TypeError, a bool or 2.0 leg
    # or dim was dumped as False or 2.0, ids with whitespace and empty ids
    # dumped to files parse_graph refused, int ids read back as str, and
    # mixed int and str ids made dump_graph's sort raise TypeError
    tensors = {"t": DenseTensor(np.eye(2, dtype=int), EXACT),
               "v": DenseTensor(np.ones(2, dtype=int), EXACT)}
    with pytest.raises(ShapeError):
        TnGraph({nid: tensors[t] for nid, t in nodes.items()}, [Edge(*edge)],
                [OpenLeg(*leg, 1)])


def _scalars(field, n):
    if field == EXACT:
        return st.lists(st.fractions(max_denominator=50) | st.integers(),
                        min_size=n, max_size=n)
    return st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=n, max_size=n)


# mostly words; now and then any text or an int, which may not be ids
NODE_IDS = st.integers(0, 11).flatmap(
    lambda k: st.from_regex(r"\S{1,3}", fullmatch=True) if k < 10
    else st.text(max_size=3) if k == 10 else st.integers(0, 3))


def _maybe_bogus(data, value):
    """``value`` (an int), or now and then a stand-in the text format cannot
    carry, or a numpy integer, which it can."""
    kind = data.draw(st.sampled_from(["int"] * 30 + ["np", "float", "str",
                                                     "bool"]))
    return {"int": value, "np": np.int64(value), "float": float(value),
            "str": str(value), "bool": bool(value)}[kind]


@pytest.mark.parametrize("field", [EXACT, FLOAT])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_every_accepted_graph_round_trips_through_text(field, data):
    # connected graphs with cycles and parallel bonds; ids, leg indices,
    # dims and time indices are now and then values the text cannot carry,
    # and TnGraph must refuse exactly those, with ShapeError
    ids = data.draw(st.lists(NODE_IDS, min_size=1, max_size=4, unique=True))
    n = len(ids)
    pairs = [(data.draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    if n > 1:
        for _ in range(data.draw(st.integers(0, 2))):
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(0, n - 2))
            pairs.append((a, b + (b >= a)))
    dims = [[] for _ in range(n)]
    carried = all(isinstance(i, str) and i != "" and
                  not any(c.isspace() for c in i) for i in ids)

    def field_value(value):
        nonlocal carried
        got = _maybe_bogus(data, value)
        carried &= type(got) in (int, np.int64)
        return got

    def leg(v, d):
        dims[v].append(d)
        return field_value(len(dims[v]) - 1)

    edges = []
    for a, b in pairs:
        d = data.draw(st.integers(1, 2))
        edges.append(Edge(ids[a], leg(a, d), ids[b], leg(b, d),
                          field_value(d)))
    open_legs = []
    for _ in range(data.draw(st.integers(int(n == 1), 3))):
        v, d = data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, 2))
        open_legs.append(OpenLeg(ids[v], leg(v, d), field_value(d),
                                 field_value(data.draw(st.integers(1, 4)))))
    nodes = {}
    for v, nid in enumerate(ids):
        entries = data.draw(_scalars(field, math.prod(dims[v])))
        nodes[nid] = DenseTensor(
            (exact_array(entries) if field == EXACT
             else np.array(entries, dtype=float)).reshape(dims[v]), field)
    try:
        g = TnGraph(nodes, edges, open_legs)
    except ShapeError:
        assert not carried
        return
    assert carried
    text = dump_graph(g)
    h = parse_graph(text)
    assert dump_graph(h) == text
    assert h.nodes.keys() == g.nodes.keys()
    for nid, t in g.nodes.items():
        u = h.nodes[nid]
        assert (u.field, u.dims) == (t.field, t.dims)
        if field == EXACT:
            assert [(type(x), x) for x in u.entries] == \
                [(type(x), x) for x in t.entries]
        else:
            assert u.data.tobytes() == t.data.tobytes()
    assert h.edges == g.edges and h.open_legs == g.open_legs


def test_open_leg_side_comes_from_its_time():
    # start iff t <= (largest time index) // 2, in any leg order, so a
    # hand-built graph cannot disagree with itself
    t = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 0, 2, 2), OpenLeg("t", 1, 2, 1)])
    assert g.steps == 2 and [g.side(o) for o in g.open_legs] == [END, START]
    assert dump_graph(g).endswith("leg t 0 2 2 end\nleg t 1 2 1 start\n")
    assert min_cut(g)[0] == 2


def test_contract_matrix_vector():
    m = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    v = DenseTensor(np.array([5, 6]), EXACT)
    g = TnGraph({"m": m, "v": v}, [Edge("m", 1, "v", 0, 2)],
                [OpenLeg("m", 0, 2, 1)])
    out = contract(g)
    assert list(out.entries) == [Fraction(17), Fraction(39)]


def test_contract_chain_vs_nested_loops():
    rng = np.random.default_rng(2)
    a = exact_array(rng.integers(-3, 4, (2, 3)))
    b = exact_array(rng.integers(-3, 4, (3, 2)))
    c = exact_array(rng.integers(-3, 4, (2, 2)))
    g = TnGraph({"a": DenseTensor(a), "b": DenseTensor(b), "c": DenseTensor(c)},
                [Edge("a", 1, "b", 0, 3), Edge("b", 1, "c", 0, 2)],
                [OpenLeg("a", 0, 2, 1), OpenLeg("c", 1, 2, 2)])
    out = contract(g)
    ref = a @ b @ c
    assert np.all(out.data == ref)


def test_contract_single_node():
    t = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 0, 2, 1),
                               OpenLeg("t", 1, 2, 2)])
    assert contract(g).equals(t)


def test_contract_orders_legs_by_time():
    # open legs declared out of order must come back sorted by time index
    t = DenseTensor(np.arange(6).reshape(2, 3), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 1, 3, 2),
                               OpenLeg("t", 0, 2, 1)])
    out = contract(g)
    assert out.dims == (2, 3)
    assert np.all(out.data == t.data)


def test_contract_budget(monkeypatch):
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    monkeypatch.setenv(GRID_BUDGET_ENV, "4")
    with pytest.raises(ResourceBudgetError):
        contract(build_mps(p, 4))


@pytest.mark.parametrize("value", ["1e3", "abc", "-1", " "])
def test_contract_refuses_a_malformed_budget(value, monkeypatch):
    # "1e3" used to raise int()'s ValueError
    p = draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2, L=1)
    monkeypatch.setenv(GRID_BUDGET_ENV, value)
    with pytest.raises(InvalidInputError, match=GRID_BUDGET_ENV):
        contract(build_mps(p, 4))
    monkeypatch.setenv(GRID_BUDGET_ENV, " 1000 ")
    contract(build_mps(p, 4))


def test_contract_budget_is_the_greedy_peak(monkeypatch):
    # merging the pair with the smallest result keeps every intermediate of
    # this 334-node graph at R^2 = 9 entries; any budget below that fails
    p = draw_params(trial_rng(5, 2, 3, 6, 3, 0), 2, 3, L=3)
    enc, seq = TemplateEncoder.identity(2), (1, 2, 1, 2, 1, 2)
    g = attach_inputs(build_deep_tn(p, 6), enc, seq)
    assert len(g.nodes) == 334
    monkeypatch.setenv(GRID_BUDGET_ENV, "9")
    assert contract(g).entries[0] == forward_deep(p, RAC_PRODUCT, enc, seq)[0]
    monkeypatch.setenv(GRID_BUDGET_ENV, "8")
    with pytest.raises(ResourceBudgetError) as ei:
        contract(g)
    assert (ei.value.required, ei.value.budget) == (9, 8)


def test_contract_merge_order_is_pinned():
    # the float draw of the graph above, merged from its nodes in id order;
    # another merge order rounds differently (the order of the graph's node
    # dict gave -0x1.63e3297d9cc8bp-97)
    p = draw_params(trial_rng(5, 2, 3, 6, 3, 0), 2, 3, L=3, field=FLOAT)
    enc, seq = TemplateEncoder.identity(2, FLOAT), (1, 2, 1, 2, 1, 2)
    g = attach_inputs(build_deep_tn(p, 6), enc, seq)
    assert len(g.nodes) == 334
    assert contract(g).entries[0].hex() == "-0x1.63e3297d9cc89p-97"


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_float_contraction_is_a_function_of_the_graph(data):
    # a float deep graph, its text round trip (which lists the nodes in id
    # order) and a copy with its node dict shuffled contract to the same
    # bits; size ties used to fall to the node dict's order
    M, R, L = (data.draw(st.integers(2, 3)) for _ in range(3))
    T = data.draw(st.sampled_from([2, 4] if L == 3 else [2, 4, 6]))
    seed = data.draw(st.integers(0, 2 ** 16))
    p = draw_params(trial_rng(seed, M, R, T, L, 0), M, R, L=L, field=FLOAT)
    seq = data.draw(st.lists(st.integers(1, M), min_size=T, max_size=T))
    g = attach_inputs(build_deep_tn(p, T), TemplateEncoder.identity(M, FLOAT),
                      seq)
    shuffled = dict(data.draw(st.permutations(list(g.nodes.items()))))
    want = contract(g).entries[0].hex()
    for h in (parse_graph(dump_graph(g)),
              TnGraph(shuffled, g.edges, g.open_legs)):
        assert contract(h).entries[0].hex() == want


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
    times = data.draw(st.lists(st.integers(1, 3), min_size=int(n == 1),
                               max_size=3))
    open_legs, order = [], []
    for i, t in enumerate(times):
        v, d, letter = data.draw(st.integers(0, n - 1)), data.draw(dim), \
            next(letters)
        open_legs.append(OpenLeg(f"v{v}", leg(v, d, letter), d, t))
        order.append(((t, i), letter))
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


@pytest.mark.parametrize("field", [EXACT, FLOAT])
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_pair_product_is_tensordot(field, data):
    # 1-3 shared axes, listed in any order, among free axes in any order
    dim = st.integers(1, 3)
    shared = data.draw(st.lists(dim, min_size=1, max_size=3))
    size = {("s", i): d for i, d in enumerate(shared)}
    for side in "ab":
        for j, d in enumerate(data.draw(st.lists(dim, max_size=2))):
            size[side, j] = d
    axes_of = {side: data.draw(st.permutations(
        [k for k in size if k[0] in ("s", side)])) for side in "ab"}
    listed = data.draw(st.permutations(range(len(shared))))
    axes_a = [axes_of["a"].index(("s", i)) for i in listed]
    axes_b = [axes_of["b"].index(("s", i)) for i in listed]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def array(side):
        shape = tuple(size[k] for k in axes_of[side])
        if field == FLOAT:
            return rng.standard_normal(shape)
        nums, dens = rng.integers(-9, 10, shape), rng.integers(1, 4, shape)
        return exact_array(np.vectorize(Fraction, otypes=[object])(
            nums, dens))

    a, b = array("a"), array("b")
    got = tn._pair_product(a, b, axes_a, axes_b)
    want = np.tensordot(a, b, (axes_a, axes_b))
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    if field == FLOAT:
        assert got.tobytes() == want.tobytes()
    else:
        assert [(type(x), x) for x in got.reshape(-1)] == \
            [(type(x), x) for x in want.reshape(-1)]


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_shared_node_tensors_are_never_written(field):
    # every copy of a parameter array is one tensor, and so is every input
    # node of one symbol; with every node array read-only, a write anywhere
    # in the codec, attach_inputs, contract or min_cut would raise
    def frozen(g):
        for t in g.nodes.values():
            t.data.flags.writeable = False
        return g

    p = draw_params(trial_rng(7, 2, 2, 6, 3, 0), 2, 2, L=3, field=field)
    enc, seq = TemplateEncoder.identity(2, field), (1, 2, 2, 1, 2, 1)
    g = frozen(build_deep_tn(p, 6))
    # 3 h0, 3 W_h, 3 W_i, delta and the output row
    assert len(g.nodes) == 278 and len({id(t) for t in g.nodes.values()}) == 11
    text = dump_graph(g)
    h = frozen(parse_graph(text))
    assert dump_graph(h) == text
    attached = frozen(attach_inputs(h, enc, seq))
    assert len({id(attached.nodes[f"in{k}"]) for k in range(12)}) == 2
    val = contract(attached).entries[0]
    if field == EXACT:
        assert val == forward_deep(p, RAC_PRODUCT, enc, seq)[0]
    else:  # what the graph gave when every node had its own tensor
        assert val.hex() == "0x1.31b46198909dap-109"
    val, cut = min_cut(h)
    assert (val, len(cut)) == (512, 9) and min_cut(g) == (val, cut)
    q = draw_params(trial_rng(7, 2, 3, 8, 1, 0), 2, 3, L=1, field=field)
    mps = frozen(parse_graph(dump_graph(frozen(build_mps(q, 8)))))
    assert mps.nodes["cell1"] is mps.nodes["cell8"]
    assert min_cut(mps)[0] == 3
    w = build_weights_tensor(q, T=8)
    if field == EXACT:
        assert contract(mps).equals(w)
    else:
        assert np.allclose(contract(mps).data, w.data, rtol=1e-12, atol=0)


def test_parse_graph_shares_one_tensor_per_dims_and_entry_line():
    # repeated (dims, entry line) pairs become one tensor, distinct lines
    # distinct tensors even where their values agree
    text = dump_graph(build_deep_tn(
        draw_params(trial_rng(7, 2, 2, 4, 2, 0), 2, 2, L=2), 4))
    lines = text.splitlines()
    key = {line.split()[1]: (tuple(line.split()[3:]), lines[i + 1])
           for i, line in enumerate(lines) if line.startswith("node ")}
    h = parse_graph(text)
    tensor_of = {k: id(h.nodes[nid]) for nid, k in key.items()}
    assert all(id(h.nodes[nid]) == tensor_of[k] for nid, k in key.items())
    assert len(set(tensor_of.values())) == len(tensor_of) < len(key)
    g = parse_graph("racsep-tn v1\nfield exact\nnodes 4\n"
                    "node a 1 2\n1/1 2/1\nnode b 1 2\n2/2 4/2\n"
                    "node c 1 2\n1/1 2/1\nnode m 3 2 2 2\n" +
                    " ".join(["1/1"] * 8) + "\nedges 3\nedge a 0 m 0 2\n"
                    "edge b 0 m 1 2\nedge c 0 m 2 2\nopen 0\n")
    assert g.nodes["a"] is g.nodes["c"] and g.nodes["a"] is not g.nodes["b"]
    assert g.nodes["a"].equals(g.nodes["b"])


def test_mps_contracts_to_weights_tensor():
    for seed in range(5):
        p = draw_params(trial_rng(seed, 2, 3, 4, 1, 0), 2, 3, L=1)
        w = build_weights_tensor(p, T=4)
        assert contract(build_mps(p, 4)).equals(w)


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
                [OpenLeg("a", 0, 2, 1), OpenLeg("b", 1, 2, 2)])
    cut, edges = min_cut(g)
    assert cut == 2  # cutting one open leg (dim 2) beats the dim-3 bond


def test_min_cut_requires_both_sides():
    # a graph's last leg is an end leg, so only start legs can be missing
    t = DenseTensor(np.ones(2, dtype=int), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 0, 2, 1)])
    with pytest.raises(ShapeError, match="both"):
        min_cut(g)


def _brute_min_cut(g):
    """The reference cut: every bipartition of the nodes, scored exactly."""
    starts = [o for o in g.open_legs if g.side(o) == START]
    ends = [o for o in g.open_legs if g.side(o) == END]
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
    # connected graphs with parallel and dim-1 bonds, several legs per node
    # and nodes holding start and end legs; "v10" sorts before "v2", so the
    # enumeration's bit order differs from insertion order
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
    # legs land on random nodes, so every node may carry either side
    T = data.draw(st.integers(2, 7))
    open_legs = []
    for t in range(1, T + 1):
        v, d = names[data.draw(st.integers(0, n - 1))], data.draw(dim)
        open_legs.append(OpenLeg(v, leg(v, d), d, t))
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
    # the start/end-bridging unit repetitions of a depth-L graph, enumerated:
    # the non-decreasing tuples (t_2 <= ... <= t_L) from {T/2+1, ..., T}
    def units(T, L):
        return sum(1 for _ in itertools.combinations_with_replacement(
            range(T // 2 + 1, T + 1), L - 1))

    assert (units(6, 3), units(4, 1), units(8, 2)) == (6, 1, 4)
    for L in range(1, 5):
        for T in (2, 4, 6, 8):
            assert units(T, L) == multiset_coefficient(T // 2, L - 1)


def test_no_clone():
    for P in (2, 3, 4):
        assert no_clone_counterexample(P) == (True, False)
    assert no_clone_counterexample(1) == (True, True)


@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_graph_serialization_roundtrip(field):
    p = draw_params(trial_rng(2, 2, 2, 4, 1, 0), 2, 2, L=1, field=field)
    g = build_mps(p, 4)
    h = parse_graph(dump_graph(g))
    assert dump_graph(h) == dump_graph(g)
    assert contract(h).equals(contract(g))


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_dump_graph_refuses_non_finite(bad):
    # it used to write nan/inf, which parse_graph refuses
    g = TnGraph({"t": DenseTensor(np.array([bad, 1.0]), FLOAT)}, [],
                [OpenLeg("t", 0, 2, 1)])
    with pytest.raises(InvalidInputError, match="must be finite"):
        dump_graph(g)


def _edit(pos, new):
    """Replaces line ``pos`` of a dumped graph (deletes it when new is None)."""
    return lambda lines: lines[:pos] + ([] if new is None else [new]) \
        + lines[pos + 1:]


# edits of a dumped float MPS chain, T=4: line 3 heads node cell1 and line 4
# holds its 8 entries, line 5 heads node cell2, line 12 holds the h0
# entries, 16 is the first edge and 22 the first open leg
@pytest.mark.parametrize("edit", [
    lambda lines: lines[:2],
    _edit(1, "field bogus"),
    _edit(4, " ".join(["nan"] * 8)),
    _edit(3, "node cell1 3 2 2"),
    _edit(12, None),
    _edit(16, "edge h0 0 cell1 0"),
    _edit(22, "leg cell1 1 2 1"),
    _edit(22, "leg cell1 1 2 1 middle"),
    _edit(5, "node cell1 3 2 2 2"),
    _edit(22, "leg cell1 1 2 - start"),
    _edit(25, "leg cell4 1 2 - end"),
    _edit(22, "leg cell1 1 2 1 output"),
    lambda lines: lines + ["junk"],
    _edit(3, "node"),
], ids=["truncated", "unknown-field", "nan-entry", "dims-vs-order",
        "missing-entries", "short-edge", "short-leg", "bad-side",
        "repeated-node", "start-leg-without-time", "end-leg-without-time",
        "output-side", "trailing-line", "bare-node-line"])
def test_parse_graph_rejects_malformed(edit):
    p = draw_params(trial_rng(2, 2, 2, 4, 1, 0), 2, 2, L=1, field=FLOAT)
    lines = dump_graph(build_mps(p, 4)).splitlines()
    assert lines[3] == "node cell1 3 2 2 2" and lines[11] == "node h0 1 2"
    assert lines[22] == "leg cell1 1 2 1 start" and len(lines) == 26
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
    ("leg t 0 2 1 start", "leg t 0 2 0 start"),
    ("nodes 1\nnode t 2 2 2\n1/1 2/1 3/1 4/1\nedges 0\nopen 2\n"
     "leg t 0 2 1 start\nleg t 1 2 2 end\n", "nodes 0\nedges 0\nopen 0\n"),
    ("leg t 1 2 2 end", "leg t 1 2 2 start"),
], ids=["self-loop", "time-index-0", "no-nodes", "side-vs-time"])
def test_parse_graph_refuses_what_contract_cannot_handle(old, new):
    t = DenseTensor(np.array([[1, 2], [3, 4]]), EXACT)
    g = TnGraph({"t": t}, [], [OpenLeg("t", 0, 2, 1),
                               OpenLeg("t", 1, 2, 2)])
    assert dump_graph(g) == SQUARE_DUMP
    with pytest.raises(ShapeError):
        parse_graph(SQUARE_DUMP.replace(old, new))


@pytest.mark.parametrize("build,error,match", [
    (lambda: TnGraph({"a": DenseTensor(np.ones(2)),
                      "b": DenseTensor(np.ones(2, dtype=int), EXACT)},
                     [Edge("a", 0, "b", 0, 2)], []),
     ShapeError, "one scalar field"),
    (lambda: build_mps(draw_params(trial_rng(0, 2, 2, 4, 2, 0), 2, 2, L=2),
                       4), ParameterError, "single-layer"),
], ids=["mixed-fields", "two-layer-mps"])
def test_graphs_that_cannot_be_built_are_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_attach_inputs_names_no_node_the_graph_uses():
    # input nodes were named in0, in1, ... over the graph's own nodes: a
    # node 'in0' was replaced by an input vector, and ShapeError said
    # "node 'in0' has no leg 1"
    enc = TemplateEncoder.identity(2, FLOAT)
    m, b = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]])), DenseTensor(
        np.ones(2))
    results = []
    for name in ("in0", "a"):
        g = TnGraph({name: m, "b": b}, [Edge(name, 1, "b", 0, 2)],
                    [OpenLeg(name, 0, 2, time_index=1)])
        results.append(contract(attach_inputs(g, enc, [1])).data.tolist())
    assert results == [[3.0], [3.0]]


def test_no_clone_counts_its_delta_tensor_against_the_grid_budget(
        monkeypatch):
    built = []

    def spy(P, field=EXACT, _delta=tn.delta_tensor):
        built.append(P)
        return _delta(P, field)

    monkeypatch.setattr(tn, "delta_tensor", spy)
    monkeypatch.setenv("RACSEP_GRID_BUDGET", "26")
    with pytest.raises(ResourceBudgetError) as ei:
        no_clone_counterexample(3)  # 27 entries
    assert (ei.value.required, ei.value.budget, built) == (27, 26, [])
    assert no_clone_counterexample(2) == (True, False) and built == [2]
