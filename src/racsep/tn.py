"""Tensor-network graphs for recurrent multiplicative networks.

A graph node holds a concrete tensor; edges contract matching legs; open
legs carry the external (input/output) modes.  The single-layer network is a
matrix-product-state chain.  Deeper networks cannot duplicate intermediate
vectors inside a network (see :func:`no_clone_counterexample`), so their
graphs duplicate the *inputs*: each layer-(l-1) sub-network is rebuilt once
per time-step of layer l, and the graph grows exponentially with depth.
These graphs are analysis tools, not an execution scheme.
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
                     ShapeError, check_budget, env_budget)
from .network import (Cell, RacParams, TemplateEncoder, as_symbols,
                      check_class, check_encoder)
from .ranks import multiset_coefficient
from .tensor import (EXACT, DenseTensor, exact_array, format_scalars,
                     header_field, header_ints, header_words, parse_scalars)

CONTRACT_BUDGET_ENV = "RACSEP_CONTRACT_BUDGET"
DEFAULT_CONTRACT_BUDGET = 10 ** 7
DEEP_TN_MAX_L = 3
DEEP_TN_MAX_T = 8

START, END, OUTPUT = "start", "end", "output"


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
    time_index: int = None  # None for output legs
    side: str = START


class TnGraph:
    """Weighted graph of tensors; every tensor leg is used exactly once."""

    def __init__(self, nodes, edges, open_legs):
        self.nodes = dict(nodes)
        self.edges = list(edges)
        self.open_legs = list(open_legs)
        self._validate()

    def _validate(self):
        used = {nid: set() for nid in self.nodes}
        fields = {t.field for t in self.nodes.values()}
        if len(fields) > 1:
            raise ShapeError("all node tensors must share one scalar field")

        def claim(nid, leg, dim):
            t = self.nodes.get(nid)
            if t is None:
                raise ShapeError(f"unknown node {nid!r}")
            if not 0 <= leg < t.order:
                raise ShapeError(f"node {nid!r} has no leg {leg}")
            if t.dims[leg] != dim:
                raise ShapeError(
                    f"leg dim mismatch at {nid!r}[{leg}]: {t.dims[leg]} != {dim}")
            if dim < 1:
                raise ShapeError(f"leg {nid!r}[{leg}] has dim {dim} < 1")
            if leg in used[nid]:
                raise ShapeError(f"leg {nid!r}[{leg}] used more than once")
            used[nid].add(leg)

        for e in self.edges:
            if e.node_a == e.node_b:
                raise ShapeError(f"edge joins node {e.node_a!r} to itself")
            claim(e.node_a, e.leg_a, e.dim)
            claim(e.node_b, e.leg_b, e.dim)
        for o in self.open_legs:
            if o.side != OUTPUT and o.time_index is None:
                raise ShapeError(
                    f"{o.side} leg {o.node!r}[{o.leg}] needs a time index")
            claim(o.node, o.leg, o.dim)
        for nid, legs in used.items():
            if len(legs) != self.nodes[nid].order:
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
    Input legs are tagged "start" for t <= T/2 and "end" otherwise.
    """
    if p.L != 1:
        raise ParameterError("build_mps requires a single-layer network")
    if T < 1:
        raise ShapeError("T must be >= 1")
    wi, wh = p.w_in[0], p.w_hidden[0]
    R, M = p.R, p.M
    cell = wh.T[:, None, :] * wi.T[None, :, :]
    nodes = {"h0": DenseTensor(p.h0[0], p.field)}
    edges, open_legs = [], []
    for t in range(1, T + 1):
        nodes[f"cell{t}"] = DenseTensor(cell, p.field)
        left = ("h0", 0) if t == 1 else (f"cell{t-1}", 2)
        edges.append(Edge(left[0], left[1], f"cell{t}", 0, R))
        side = START if t <= T // 2 else END
        open_legs.append(OpenLeg(f"cell{t}", 1, M, time_index=t, side=side))
    if c is None:
        nodes["out"] = DenseTensor(p.w_out, p.field)
        open_legs.append(OpenLeg("out", 0, p.C, time_index=None, side=OUTPUT))
    else:
        check_class(p, c)
        nodes["out"] = DenseTensor(p.w_out[c - 1], p.field)
    edges.append(Edge(f"cell{T}", 2, "out", 1 if c is None else 0, R))
    return TnGraph(nodes, edges, open_legs)


def build_deep_tn(p: RacParams, T: int, c: int = 1) -> TnGraph:
    """Input-duplicating graph of an L-layer network after T steps.

    The layer-l state at time t is produced by a cell {Wh, Wi, delta} whose
    lower leg is a fresh copy of the layer-(l-1) sub-network of length t;
    each input time-step therefore appears once per duplication path.
    Contraction (with inputs attached) equals the forward evaluation exactly.
    The graph is capped at L <= DEEP_TN_MAX_L and T <= DEEP_TN_MAX_T.
    """
    if T < 1:
        raise ShapeError(f"T must be >= 1, got {T}")
    if p.L > DEEP_TN_MAX_L or T > DEEP_TN_MAX_T:
        raise ResourceBudgetError(
            f"deep graph budget is L<={DEEP_TN_MAX_L}, T<={DEEP_TN_MAX_T}; "
            f"requested L={p.L}, T={T}")
    check_class(p, c)
    R, M = p.R, p.M
    delta = delta_tensor(R, p.field)
    nodes, edges, open_legs = {}, [], []
    counter = itertools.count()

    def add(prefix, tensor):
        nid = f"{prefix}{next(counter)}"
        nodes[nid] = tensor
        return nid

    def fragment(l, t):
        """Returns (node, leg) exposing the layer-l state after t steps."""
        if t == 0:
            return add(f"h0l{l}_", DenseTensor(p.h0[l - 1], p.field)), 0
        prev = fragment(l, t - 1)
        wh = add("wh", DenseTensor(p.w_hidden[l - 1], p.field))
        edges.append(Edge(wh, 1, prev[0], prev[1], R))
        wi = add("wi", DenseTensor(p.w_in[l - 1], p.field))
        if l == 1:
            side = START if t <= T // 2 else END
            open_legs.append(OpenLeg(wi, 1, M, time_index=t, side=side))
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
    """Contract every input leg with its time-step's encoded template vector."""
    symbols = as_symbols(seq, enc.M)
    nodes = dict(g.nodes)
    edges = list(g.edges)
    remaining = []
    k = 0
    for o in g.open_legs:
        if o.side == OUTPUT:
            remaining.append(o)
            continue
        if o.time_index > len(symbols):
            raise InvalidInputError(
                f"sequence too short: leg needs time-step {o.time_index}")
        check_encoder(enc, o.dim, g.field)
        nid = f"in{k}"
        k += 1
        nodes[nid] = DenseTensor(enc.row(symbols[o.time_index - 1]), g.field)
        edges.append(Edge(o.node, o.leg, nid, 0, o.dim))
    return TnGraph(nodes, edges, remaining)


def contract(g: TnGraph) -> DenseTensor:
    """Sum over all contracted indices; result order = number of open legs.

    Greedy pairwise contraction along bonds: each step merges the two
    tensors sharing a bond whose result is smallest, the first such pair in
    pool order on a tie.  Candidate pairs sit in a heap and each merge
    pushes only the new tensor's pairs with its neighbours, so on a graph of
    N nodes and E bonds whose tensors keep a bounded number of neighbours
    scheduling costs O(E log E), not the O(N E) of rescanning every bond per
    merge.  Open legs are ordered by time index (inputs) with output legs
    last; a fully closed network yields a single-entry tensor.  The entry
    budget is read from the RACSEP_CONTRACT_BUDGET environment variable.
    """
    budget = env_budget(CONTRACT_BUDGET_ENV, DEFAULT_CONTRACT_BUDGET)
    total_open = math.prod(o.dim for o in g.open_legs)
    check_budget("contraction result", total_open, budget)

    # every axis is labelled once: a bond number, or its open leg's sort key
    label = {}
    for b, e in enumerate(g.edges):
        label[e.node_a, e.leg_a] = label[e.node_b, e.leg_b] = b
    for i, o in enumerate(g.open_legs):
        label[o.node, o.leg] = (1, 0, i) if o.side == OUTPUT \
            else (0, o.time_index, i)
    # the pool: key -> (array, axis labels); keys count up in pool order
    keys = itertools.count()
    node_key = {nid: next(keys) for nid in g.nodes}
    pool = {node_key[nid]: (t.data, [label[nid, ax] for ax in range(t.order)])
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
        arr = np.tensordot(ax, ay, axes=([lx.index(l) for l in common],
                                         [ly.index(l) for l in common]))
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
    if not g.open_legs:
        return DenseTensor(arr.reshape(1), g.field)
    perm = sorted(range(len(legs)), key=legs.__getitem__)
    return DenseTensor(np.transpose(arr, perm), g.field)


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
    starts = [o for o in g.open_legs if o.side == START]
    ends = [o for o in g.open_legs if o.side == END]
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
    val, cut = 1, []
    for e in g.edges:
        if (e.node_a in end_side) != (e.node_b in end_side):
            val *= e.dim
            cut.append(e)
    for o in starts:
        if o.node in end_side:
            val *= o.dim
            cut.append(o)
    for o in ends:
        if o.node not in end_side:
            val *= o.dim
            cut.append(o)
    return val, tuple(cut)


@dataclass(frozen=True)
class BasicUnitCount:
    enumerated: int
    closed_form: int

    @property
    def match(self):
        return self.enumerated == self.closed_form


def count_basic_units(cell: Cell) -> BasicUnitCount:
    """Number of start/end-bridging unit repetitions in a cell's graph.

    Counts non-decreasing tuples (t_2 <= ... <= t_L) drawn from the second
    half {T/2+1, ..., T}; the closed form is the multiset coefficient
    (T/2 choose-with-repetition L-1).
    """
    count = sum(1 for _ in itertools.combinations_with_replacement(
        range(cell.half + 1, cell.T + 1), cell.L - 1))
    return BasicUnitCount(enumerated=count, closed_form=multiset_coefficient(
        cell.half, cell.L - 1))


@dataclass(frozen=True)
class NoCloneReport:
    dim: int
    basis_cloned: bool
    ones_cloned: bool


def no_clone_counterexample(P: int) -> NoCloneReport:
    """Checks that the super-diagonal tensor clones every standard basis
    vector yet fails to clone the all-ones vector (for P >= 2), which is the
    computational core of why vector duplication is impossible inside a
    tensor network."""
    if P < 1:
        raise InvalidInputError("P must be >= 1")
    d = delta_tensor(P, EXACT).data

    def cloned(v):
        return bool(np.all(np.tensordot(d, v, axes=([0], [0]))
                           == np.multiply.outer(v, v)))

    basis, ones = exact_array(np.eye(P, dtype=int)), exact_array([1] * P)
    return NoCloneReport(dim=P, basis_cloned=all(map(cloned, basis)),
                         ones_cloned=cloned(ones))


# ---------------------------------------------------------------------------
# Plain-text serialization (node tensors, edge list, open-leg tags).

GRAPH_TAG = "racsep-tn v1"


def dump_graph(g: TnGraph) -> str:
    fld = g.field
    lines = [GRAPH_TAG, f"field {fld}", f"nodes {len(g.nodes)}"]
    for nid in sorted(g.nodes):
        t = g.nodes[nid]
        lines.append(f"node {nid} {t.order} " + " ".join(map(str, t.dims)))
        lines.append(" ".join(format_scalars(t.entries, fld)))
    lines.append(f"edges {len(g.edges)}")
    for e in g.edges:
        lines.append(f"edge {e.node_a} {e.leg_a} {e.node_b} {e.leg_b} {e.dim}")
    lines.append(f"open {len(g.open_legs)}")
    for o in g.open_legs:
        t = "-" if o.time_index is None else str(o.time_index)
        lines.append(f"leg {o.node} {o.leg} {o.dim} {t} {o.side}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> TnGraph:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != GRAPH_TAG:
        raise InvalidInputError("not a tensor-network file (bad header)")
    fld = header_field(lines, 1)
    pos = 2

    def take(key, count=None):
        """The words after ``key`` on the next line."""
        nonlocal pos
        pos += 1
        return header_words(lines, pos - 1, key, count)

    def items(key):
        (n,) = header_ints(take(key, 1))
        return range(n)

    nodes = {}
    for _ in items("nodes"):
        words = take("node")
        dims = header_ints(words[2:])
        if header_ints(words[1:2]) != (len(dims),):
            raise InvalidInputError(
                f"node line {' '.join(words)!r}: dims do not match the order")
        raw = lines[pos].split() if pos < len(lines) else []
        pos += 1
        nodes[words[0]] = DenseTensor(parse_scalars(raw, fld, dims), fld)
    edges = []
    for _ in items("edges"):
        a, la, b, lb, dim = take("edge", 5)
        la, lb, dim = header_ints((la, lb, dim))
        edges.append(Edge(a, la, b, lb, dim))
    open_legs = []
    for _ in items("open"):
        node, leg, dim, t, side = take("leg", 5)
        if side not in (START, END, OUTPUT):
            raise InvalidInputError(
                f"leg side must be {START}, {END} or {OUTPUT}, got {side!r}")
        leg, dim = header_ints((leg, dim))
        t = None if t == "-" else header_ints((t,))[0]
        open_legs.append(OpenLeg(node, leg, dim, t, side))
    return TnGraph(nodes, edges, open_legs)


def save_graph(g: TnGraph, path):
    with open(path, "w") as fh:
        fh.write(dump_graph(g))


def load_graph(path) -> TnGraph:
    with open(path) as fh:
        return parse_graph(fh.read())
