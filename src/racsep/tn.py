"""Tensor-network graphs for recurrent multiplicative networks.

A graph node holds a concrete tensor; edges contract matching legs; open
legs carry the input modes, each with its time-step t >= 1, which puts it
on one side of the start/end split: start iff t <= T // 2, for T the
graph's largest time index.  The single-layer network is a
matrix-product-state chain.  Deeper networks cannot duplicate intermediate
vectors (:func:`no_clone_counterexample`), so their graphs duplicate the
*inputs*: each layer-(l-1) sub-network is rebuilt once per time-step of
layer l, the start/end-bridging units repeat multiset(T/2, L-1) times, and
the graph grows exponentially with depth.  These graphs are analysis tools,
not an execution scheme.  Their nodes share one tensor per parameter array,
and no function here writes into a node's tensor.  :func:`dump_graph` and
:func:`parse_graph` turn a graph into text and back through the tensor
module's :class:`TextReader`, formatting and parsing each distinct tensor
once.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (InvalidInputError, ParameterError, ResourceBudgetError,
                     ShapeError, check_budget, check_count, grid_budget,
                     is_integer)
from .network import (RacParams, TemplateEncoder, as_symbols, check_class,
                      check_encoder, check_steps)
from .tensor import (EXACT, DenseTensor, TextReader, exact_array,
                     format_scalars, header_ints, split_denominator)

DEEP_TN_MAX_L = 3
DEEP_TN_MAX_T = 8

START, END = "start", "end"


@dataclass(frozen=True)
class Edge:
    node_a: str
    leg_a: int
    node_b: str
    leg_b: int
    dim: int


@dataclass(frozen=True)
class OpenLeg:
    node: str
    leg: int
    dim: int
    time_index: int


class TnGraph:
    """Weighted graph of tensors; every tensor leg is used exactly once.
    ``steps`` is the largest time index of an open leg (0 if none).

    Node ids are non-empty strings without whitespace, and leg indices,
    dims and time indices are integers (a bool is not), so that every graph
    has a text form; anything else is refused with ShapeError.  Several
    nodes may hold one DenseTensor: a node's tensor is read, never written.
    """

    def __init__(self, nodes, edges, open_legs):
        self.nodes = dict(nodes)
        self.edges = list(edges)
        self.open_legs = list(open_legs)
        self._validate()
        self.steps = max((o.time_index for o in self.open_legs), default=0)

    def side(self, o: OpenLeg):
        """START if open leg ``o`` is in the first half of the steps, else
        END."""
        return START if o.time_index <= self.steps // 2 else END

    def _validate(self):
        if not self.nodes:
            raise ShapeError("a tensor-network graph needs at least one node")
        for nid in self.nodes:
            if not isinstance(nid, str) or nid.split() != [nid]:
                raise ShapeError(f"node id {nid!r} is not a non-empty string "
                                 "without whitespace")
        used = {nid: set() for nid in self.nodes}
        dims = {nid: t.dims for nid, t in self.nodes.items()}
        fields = {t.field for t in self.nodes.values()}
        if len(fields) > 1:
            raise ShapeError("all node tensors must share one scalar field")

        def claim(nid, leg, dim):
            shape = dims.get(nid) if isinstance(nid, str) else None
            if shape is None:
                raise ShapeError(f"unknown node {nid!r}")
            if not is_integer(leg) or not 0 <= leg < len(shape):
                raise ShapeError(f"node {nid!r} has no leg {leg!r}")
            if not is_integer(dim) or dim < 1:
                raise ShapeError(f"leg {nid!r}[{leg}] has dim {dim!r}, not an "
                                 "integer >= 1")
            if shape[leg] != dim:
                raise ShapeError(
                    f"leg dim mismatch at {nid!r}[{leg}]: {shape[leg]} != {dim}")
            if leg in used[nid]:
                raise ShapeError(f"leg {nid!r}[{leg}] used more than once")
            used[nid].add(leg)

        for e in self.edges:
            if e.node_a == e.node_b:
                raise ShapeError(f"edge joins node {e.node_a!r} to itself")
            claim(e.node_a, e.leg_a, e.dim)
            claim(e.node_b, e.leg_b, e.dim)
        for o in self.open_legs:
            t = o.time_index
            if not is_integer(t) or t < 1:
                raise ShapeError(f"leg {o.node!r}[{o.leg}] needs a time index "
                                 f">= 1, got {t!r}")
            claim(o.node, o.leg, o.dim)
        for nid, legs in used.items():
            if len(legs) != len(dims[nid]):
                raise ShapeError(f"node {nid!r} has unused legs")
        adj = {nid: [] for nid in self.nodes}
        for e in self.edges:
            adj[e.node_a].append(e.node_b)
            adj[e.node_b].append(e.node_a)
        seen, stack = set(), list(self.nodes)[:1]
        while stack:
            n = stack.pop()
            if n not in seen:
                seen.add(n)
                stack.extend(adj[n])
        if seen != set(self.nodes):
            raise ShapeError("tensor-network graph must be connected")

    @property
    def field(self):
        return next(iter(self.nodes.values())).field


def delta_tensor(R: int, field=EXACT) -> DenseTensor:
    """Order-3 tensor equal to 1 on the super-diagonal, 0 elsewhere."""
    eye = np.eye(R, dtype=int)
    return DenseTensor(eye[:, :, None] * eye[:, None, :], field)


def build_mps(p: RacParams, T: int, c: int = 1) -> TnGraph:
    """Matrix-product-state chain for the order-T weights tensor of class c.

    Cell t is the order-3 tensor M[k_prev, d, k] = Wi[k, d] * Wh[k, k_prev];
    boundaries are the neutral initial state and the class-c output row.
    """
    if p.L != 1:
        raise ParameterError("build_mps requires a single-layer network")
    check_steps(T)
    check_class(p, c)
    wi, wh = p.w_in[0], p.w_hidden[0]
    R, M = p.R, p.M
    cell = DenseTensor(wh.T[:, None, :] * wi.T[None, :, :], p.field)
    nodes = {"h0": DenseTensor(p.h0[0], p.field)}
    edges, open_legs = [], []
    for t in range(1, T + 1):
        nodes[f"cell{t}"] = cell
        left = ("h0", 0) if t == 1 else (f"cell{t-1}", 2)
        edges.append(Edge(left[0], left[1], f"cell{t}", 0, R))
        open_legs.append(OpenLeg(f"cell{t}", 1, M, time_index=t))
    nodes["out"] = DenseTensor(p.w_out[c - 1], p.field)
    edges.append(Edge(f"cell{T}", 2, "out", 0, R))
    return TnGraph(nodes, edges, open_legs)


def build_deep_tn(p: RacParams, T: int, c: int = 1) -> TnGraph:
    """Input-duplicating graph of an L-layer network after T steps.

    The layer-l state at time t is produced by a cell {Wh, Wi, delta} whose
    lower leg is a fresh copy of the layer-(l-1) sub-network of length t;
    each input time-step therefore appears once per duplication path.
    Contraction (with inputs attached) equals the forward evaluation exactly.
    Every copy of a layer's h0, W_h or W_i is one shared tensor.  The graph
    is capped at L <= DEEP_TN_MAX_L and T <= DEEP_TN_MAX_T.
    """
    check_steps(T)
    if p.L > DEEP_TN_MAX_L or T > DEEP_TN_MAX_T:
        raise ResourceBudgetError(
            f"deep graph budget is L<={DEEP_TN_MAX_L}, T<={DEEP_TN_MAX_T}; "
            f"requested L={p.L}, T={T}")
    check_class(p, c)
    R, M = p.R, p.M
    delta = delta_tensor(R, p.field)
    h0 = [DenseTensor(a, p.field) for a in p.h0]
    w_hidden = [DenseTensor(a, p.field) for a in p.w_hidden]
    w_in = [DenseTensor(a, p.field) for a in p.w_in]
    nodes, edges, open_legs = {}, [], []
    counter = itertools.count()

    def add(prefix, tensor):
        nid = f"{prefix}{next(counter)}"
        nodes[nid] = tensor
        return nid

    def fragment(l, t):
        """Returns (node, leg) exposing the layer-l state after t steps."""
        if t == 0:
            return add(f"h0l{l}_", h0[l - 1]), 0
        prev = fragment(l, t - 1)
        wh = add("wh", w_hidden[l - 1])
        edges.append(Edge(wh, 1, prev[0], prev[1], R))
        wi = add("wi", w_in[l - 1])
        if l == 1:
            open_legs.append(OpenLeg(wi, 1, M, time_index=t))
        else:
            below = fragment(l - 1, t)
            edges.append(Edge(wi, 1, below[0], below[1], R))
        d = add("delta", delta)
        edges.append(Edge(d, 0, wh, 0, R))
        edges.append(Edge(d, 1, wi, 0, R))
        return d, 2

    top = fragment(p.L, T)
    out = add("out", DenseTensor(p.w_out[c - 1], p.field))
    edges.append(Edge(out, 0, top[0], top[1], R))
    return TnGraph(nodes, edges, open_legs)


def attach_inputs(g: TnGraph, enc: TemplateEncoder, seq) -> TnGraph:
    """Contract every input leg with its time-step's encoded template vector;
    ``seq`` holds one symbol per time-step of g, no fewer and no more.  The
    input nodes, in0, in1, ... but for ids g uses, share one tensor per
    symbol."""
    symbols = as_symbols(seq, enc.M)
    if len(symbols) != g.steps:
        raise InvalidInputError(
            f"sequence has {len(symbols)} symbols, graph has {g.steps} steps")
    for dim in dict.fromkeys(o.dim for o in g.open_legs):
        check_encoder(enc, dim, g.field)
    rows = {s: DenseTensor(enc.row(s), g.field) for s in set(symbols)}
    nodes = dict(g.nodes)
    edges = list(g.edges)
    free = (f"in{k}" for k in itertools.count() if f"in{k}" not in g.nodes)
    for o, nid in zip(g.open_legs, free):
        nodes[nid] = rows[symbols[o.time_index - 1]]
        edges.append(Edge(o.node, o.leg, nid, 0, o.dim))
    return TnGraph(nodes, edges, [])


def _pair_product(a, b, axes_a, axes_b):
    """``np.tensordot(a, b, (axes_a, axes_b))`` by the same transpose,
    reshape, ``np.dot`` and reshape, without its argument handling, so a
    float result is the same to the bit: a's free axes, then b's."""
    free_a = [k for k in range(a.ndim) if k not in axes_a]
    free_b = [k for k in range(b.ndim) if k not in axes_b]
    dims_a = [a.shape[k] for k in free_a]
    dims_b = [b.shape[k] for k in free_b]
    n = math.prod(a.shape[k] for k in axes_a)
    at = a.transpose(free_a + axes_a).reshape(math.prod(dims_a), n)
    bt = b.transpose(axes_b + free_b).reshape(n, math.prod(dims_b))
    return np.dot(at, bt).reshape(dims_a + dims_b)


def contract(g: TnGraph) -> DenseTensor:
    """Sum over all contracted indices; result order = number of open legs.

    Greedy pairwise contraction along bonds: each step merges the two
    tensors sharing a bond whose result is smallest, the first such pair in
    pool order on a tie: the nodes in id order, then the merged tensors in
    the order they were made, so a float result depends on the graph, not
    on the order of its node dict.  Candidate pairs sit in a heap and each
    merge pushes only the new tensor's pairs with its neighbours, so on a
    graph of N nodes and E bonds whose tensors keep a bounded number of
    neighbours scheduling costs O(E log E), not the O(N E) of rescanning
    every bond per merge.  Each merge is ``np.tensordot``'s own transpose,
    reshape and ``np.dot`` (:func:`_pair_product`).  Each distinct node
    tensor is split once by :func:`split_denominator`, and none is written:
    exact nodes are contracted as integer arrays over one common
    denominator, the product of their own, which is divided out once at
    the end.  Open legs are ordered by time index; a fully closed network
    yields a single-entry tensor.  The result and every intermediate tensor
    count their entries against RACSEP_GRID_BUDGET, read once per call.
    """
    budget = grid_budget()
    total_open = math.prod(o.dim for o in g.open_legs)
    check_budget("contraction result", total_open, budget)

    # every axis is labelled once: a bond number, or its open leg's sort key
    label = {}
    for b, e in enumerate(g.edges):
        label[e.node_a, e.leg_a] = label[e.node_b, e.leg_b] = b
    for i, o in enumerate(g.open_legs):
        label[o.node, o.leg] = (o.time_index, i)
    # id of a node tensor -> (n, d), its split_denominator form; den is the
    # product of every node's d
    cleared, den = {}, 1
    for t in g.nodes.values():
        if id(t) not in cleared:
            cleared[id(t)] = split_denominator(t.data)
        den *= cleared[id(t)][1]
    # the pool: key -> (array, axis labels); keys count up in pool order,
    # which starts in node-id order, so the merges depend on the graph only
    keys = itertools.count()
    node_key = {nid: next(keys) for nid in sorted(g.nodes)}
    pool = {node_key[nid]: (cleared[id(t)][0],
                            [label[nid, ax] for ax in range(t.order)])
            for nid, t in g.nodes.items()}
    # bond -> the keys of its two holders, ascending
    holders = {b: tuple(sorted((node_key[e.node_a], node_key[e.node_b])))
               for b, e in enumerate(g.edges)}

    def candidate(x, y, d):
        return pool[x][0].size * pool[y][0].size // d ** 2, x, y

    # one (size, x, y) entry per holder pair, d the product of the dims of
    # all its bonds; a pair's size is fixed while both its keys are live, so
    # the first live entry popped is the min over all live pairs, the first
    # pair in pool order on a size tie
    shared = {}
    for b, pair in holders.items():
        shared[pair] = shared.get(pair, 1) * g.edges[b].dim
    heap = [candidate(x, y, d) for (x, y), d in shared.items()]
    heapq.heapify(heap)

    while heap:
        size, x, y = heapq.heappop(heap)
        if x not in pool or y not in pool:
            continue  # an entry of a pair one of whose keys is merged away
        check_budget("intermediate tensor", size, budget)
        (ax, lx), (ay, ly) = pool.pop(x), pool.pop(y)
        common = [l for l in lx if l in ly]
        arr = _pair_product(ax, ay, [lx.index(l) for l in common],
                            [ly.index(l) for l in common])
        legs = [l for l in lx + ly if l not in common]
        z = next(keys)
        pool[z] = (arr, legs)
        for l in common:
            del holders[l]
        neighbours = {}  # key -> product of the dims of its bonds with z
        for l in legs:
            if l in holders:
                other, = (h for h in holders[l] if h not in (x, y))
                holders[l] = (other, z)
                neighbours[other] = neighbours.get(other, 1) * g.edges[l].dim
        for other, d in neighbours.items():
            heapq.heappush(heap, candidate(other, z, d))

    (arr, legs), = pool.values()
    if g.open_legs:
        arr = np.transpose(arr, sorted(range(len(legs)), key=legs.__getitem__))
    else:
        arr = arr.reshape(1)
    return DenseTensor(arr if den == 1 else arr / Fraction(den), g.field)


def min_cut(g: TnGraph):
    """Minimal multiplicative cut separating start-tagged from end-tagged legs.

    A cut puts every node on the start or the end side; its value is the
    product of the bond dims of crossing edges and of the start/end open
    legs stranded on the wrong side.  The minimum is found by a max-flow
    (Edmonds-Karp) in the multiplicative group of positive rationals, where
    1 plays the role of zero: a super-source feeds every start leg, every
    end leg drains into a super-sink, and each bond is an arc both ways of
    capacity dim.  Values are exact over the integers.  Among minimal cuts
    the one with the smallest end side is returned: the nodes that still
    reach the sink in the residual graph.  Returns the cut value and the
    cut descriptors (crossing edges, then stranded start legs, then
    stranded end legs, each in graph order).
    """
    starts = [o for o in g.open_legs if g.side(o) == START]
    ends = [o for o in g.open_legs if g.side(o) == END]
    if not starts or not ends:
        raise ShapeError("min_cut needs both start- and end-tagged open legs")
    source, sink = object(), object()
    # residual[u][v] = capacity / flow of the arc u -> v; usable when > 1
    residual = {v: {} for v in (source, sink, *g.nodes)}

    def arc(u, v, dim):
        residual[u][v] = residual[u].get(v, Fraction(1)) * dim
        residual[v].setdefault(u, Fraction(1))

    for e in g.edges:
        arc(e.node_a, e.node_b, e.dim)
        arc(e.node_b, e.node_a, e.dim)
    for o in starts:
        arc(source, o.node, o.dim)
    for o in ends:
        arc(o.node, sink, o.dim)

    # shortest augmenting paths first: at most O(VE) augmentations
    while True:
        parent = {source: None}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, r in residual[u].items():
                if r > 1 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path = []
        v = sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] /= bottleneck
            residual[v][u] *= bottleneck

    # contained in the end side of every minimal cut
    end_side = {sink}
    stack = [sink]
    while stack:
        v = stack.pop()
        for u in residual[v]:
            if u not in end_side and residual[u][v] > 1:
                end_side.add(u)
                stack.append(u)
    cut = (*(e for e in g.edges
             if (e.node_a in end_side) != (e.node_b in end_side)),
           *(o for o in starts if o.node in end_side),
           *(o for o in ends if o.node not in end_side))
    return math.prod(c.dim for c in cut), cut


def no_clone_counterexample(P: int):
    """``(basis_cloned, ones_cloned)``: whether the super-diagonal tensor
    clones every standard basis vector, and whether it clones the all-ones
    vector.  For P >= 2 the first holds and the second fails, which is the
    computational core of why vector duplication is impossible inside a
    tensor network.  P must be an integer >= 1 (InvalidInputError) and P^3
    within RACSEP_GRID_BUDGET (ResourceBudgetError)."""
    check_count("P", P, 1)
    check_budget("no-cloning delta tensor", P ** 3, grid_budget())
    d = delta_tensor(P, EXACT).data

    def cloned(v):
        return bool(np.all(np.tensordot(d, v, axes=([0], [0]))
                           == np.multiply.outer(v, v)))

    basis, ones = exact_array(np.eye(P, dtype=int)), exact_array([1] * P)
    return all(map(cloned, basis)), cloned(ones)


# ---------------------------------------------------------------------------
# Plain-text serialization (node tensors, edge list, open-leg tags).

GRAPH_TAG = "racsep-tn v1"


def dump_graph(g: TnGraph) -> str:
    """The text form of g: its nodes in id order, each with its dims and its
    entries on one line, then its edges and open legs in graph order.  Each
    distinct node tensor is formatted once."""
    fld = g.field
    lines = [GRAPH_TAG, f"field {fld}", f"nodes {len(g.nodes)}"]
    entries = {}  # id of a node tensor -> its entry line
    for nid in sorted(g.nodes):
        t = g.nodes[nid]
        if id(t) not in entries:
            entries[id(t)] = " ".join(format_scalars(t.entries, fld))
        lines.append(f"node {nid} {t.order} " + " ".join(map(str, t.dims)))
        lines.append(entries[id(t)])
    lines.append(f"edges {len(g.edges)}")
    for e in g.edges:
        lines.append(f"edge {e.node_a} {e.leg_a} {e.node_b} {e.leg_b} {e.dim}")
    lines.append(f"open {len(g.open_legs)}")
    for o in g.open_legs:
        lines.append(f"leg {o.node} {o.leg} {o.dim} {o.time_index} {g.side(o)}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> TnGraph:
    """The graph that :func:`dump_graph` wrote as ``text``.  Nodes with the
    same dims and the same entry line share one tensor, parsed once.  A
    malformed line raises InvalidInputError, a graph that TnGraph refuses
    ShapeError."""
    r = TextReader(text, GRAPH_TAG, "tensor-network")
    fld = r.field()
    nodes, tensors = {}, {}  # tensors: (dims, entry line) -> its tensor
    for _ in range(*header_ints(r.words("nodes", 1))):
        words = r.words("node")
        dims = header_ints(words[2:])
        if header_ints(words[1:2]) != (len(dims),):
            raise InvalidInputError(
                f"node line {' '.join(words)!r}: dims do not match the order")
        if words[0] in nodes:
            raise InvalidInputError(f"node id {words[0]!r} repeats")
        line = r.line()
        if (dims, line) not in tensors:
            tensors[dims, line] = DenseTensor(r.block(dims, line), fld)
        nodes[words[0]] = tensors[dims, line]
    edges = []
    for _ in range(*header_ints(r.words("edges", 1))):
        a, la, b, lb, dim = r.words("edge", 5)
        la, lb, dim = header_ints((la, lb, dim))
        edges.append(Edge(a, la, b, lb, dim))
    open_legs, sides = [], []
    for _ in range(*header_ints(r.words("open", 1))):
        node, leg, dim, t, side = r.words("leg", 5)
        if side not in (START, END):
            raise InvalidInputError(
                f"leg side must be {START} or {END}, got {side!r}")
        open_legs.append(OpenLeg(node, *header_ints((leg, dim, t))))
        sides.append(side)
    r.end("the open legs")
    g = TnGraph(nodes, edges, open_legs)
    for o, side in zip(open_legs, sides):
        if side != g.side(o):
            raise ShapeError(
                f"leg {o.node!r}[{o.leg}] at time {o.time_index} is on the "
                f"{side} side; times up to {g.steps // 2} are {START}, "
                f"later ones {END}")
    return g
