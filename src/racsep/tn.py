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

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, ParameterError, ResourceBudgetError,
                     ShapeError)
from .network import RacParams, TemplateEncoder, as_symbols
from .ranks import multiset_coefficient
from .tensor import (EXACT, DenseTensor, exact_array, format_scalars,
                     header_field, header_ints, header_words, parse_scalars)

CONTRACT_BUDGET_ENV = "RACSEP_CONTRACT_BUDGET"
DEFAULT_CONTRACT_BUDGET = 10 ** 7
DEEP_TN_MAX_L = 3
DEEP_TN_MAX_T = 8
MIN_CUT_MAX_NODES = 24

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
            if leg in used[nid]:
                raise ShapeError(f"leg {nid!r}[{leg}] used more than once")
            used[nid].add(leg)

        for e in self.edges:
            claim(e.node_a, e.leg_a, e.dim)
            claim(e.node_b, e.leg_b, e.dim)
        for o in self.open_legs:
            claim(o.node, o.leg, o.dim)
        for nid, legs in used.items():
            if len(legs) != self.nodes[nid].order:
                raise ShapeError(f"node {nid!r} has unused legs")
        if len(self.nodes) > 1:
            seen = set()
            stack = [next(iter(self.nodes))]
            adj = {nid: [] for nid in self.nodes}
            for e in self.edges:
                adj[e.node_a].append(e.node_b)
                adj[e.node_b].append(e.node_a)
            while stack:
                n = stack.pop()
                if n in seen:
                    continue
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
        if not 1 <= c <= p.C:
            raise ParameterError(f"class index {c} out of range [1..{p.C}]")
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
    if p.L > DEEP_TN_MAX_L or T > DEEP_TN_MAX_T:
        raise ResourceBudgetError(
            f"deep graph budget is L<={DEEP_TN_MAX_L}, T<={DEEP_TN_MAX_T}; "
            f"requested L={p.L}, T={T}")
    if not 1 <= c <= p.C:
        raise ParameterError(f"class index {c} out of range [1..{p.C}]")
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
            open_legs.append(OpenLeg(wi, 1, M, time_index=t, side=None))
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
    half = T // 2
    open_legs = [
        OpenLeg(o.node, o.leg, o.dim, o.time_index,
                START if o.time_index <= half else END)
        for o in open_legs
    ]
    return TnGraph(nodes, edges, open_legs)


def attach_inputs(g: TnGraph, enc: TemplateEncoder, seq) -> TnGraph:
    """Contract every input leg with its time-step's encoded template vector."""
    symbols = as_symbols(seq, enc.M)
    nodes = dict(g.nodes)
    edges = list(g.edges)
    remaining = []
    k = 0
    for o in g.open_legs:
        if o.side == OUTPUT or o.time_index is None:
            remaining.append(o)
            continue
        if o.time_index > len(symbols):
            raise InvalidInputError(
                f"sequence too short: leg needs time-step {o.time_index}")
        nid = f"in{k}"
        k += 1
        nodes[nid] = DenseTensor(enc.row(symbols[o.time_index - 1]), g.field)
        edges.append(Edge(o.node, o.leg, nid, 0, o.dim))
    return TnGraph(nodes, edges, remaining)


def contract(g: TnGraph) -> DenseTensor:
    """Sum over all contracted indices; result order = number of open legs.

    Pairwise contraction, greedily picking the pair with the smallest
    intermediate.  Open legs are ordered by time index (inputs) with output
    legs last; a fully closed network yields a single-entry tensor.  The
    entry budget is read from the RACSEP_CONTRACT_BUDGET environment variable.
    """
    budget = int(os.environ.get(CONTRACT_BUDGET_ENV, DEFAULT_CONTRACT_BUDGET))

    open_ids = {}
    for i, o in enumerate(g.open_legs):
        key = (0, o.time_index, i) if o.side != OUTPUT else (1, 0, i)
        open_ids[(o.node, o.leg)] = (f"open{i}", key)
    total_open = 1
    for o in g.open_legs:
        total_open *= o.dim
    if total_open > budget:
        raise ResourceBudgetError(
            f"contraction result needs {total_open} entries, budget {budget}",
            required=total_open, budget=budget)

    # working tensors: [array, {axis -> leg id}]
    leg_of = {}
    for e in g.edges:
        eid = f"bond{len(leg_of)}"
        leg_of[(e.node_a, e.leg_a)] = eid
        leg_of[(e.node_b, e.leg_b)] = eid
    pool = []
    for nid, t in g.nodes.items():
        legs = []
        for ax in range(t.order):
            key = (nid, ax)
            legs.append(leg_of.get(key) or open_ids[key][0])
        pool.append([t.data, legs])

    def contract_pair(a, b):
        shared = [l for l in a[1] if l in b[1]]
        ax_a = [a[1].index(l) for l in shared]
        ax_b = [b[1].index(l) for l in shared]
        arr = np.tensordot(a[0], b[0], axes=(ax_a, ax_b))
        legs = [l for l in a[1] if l not in shared] + \
               [l for l in b[1] if l not in shared]
        return [arr, legs]

    while len(pool) > 1:
        best = None
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                if set(pool[i][1]) & set(pool[j][1]):
                    size = 1
                    shared = set(pool[i][1]) & set(pool[j][1])
                    for t in (pool[i], pool[j]):
                        for ax, l in enumerate(t[1]):
                            if l not in shared:
                                size *= t[0].shape[ax]
                    if best is None or size < best[0]:
                        best = (size, i, j)
        if best is None:
            raise ShapeError("tensor-network graph must be connected")
        size, i, j = best
        if size > budget:
            raise ResourceBudgetError(
                f"intermediate tensor needs {size} entries, budget {budget}",
                required=size, budget=budget)
        merged = contract_pair(pool[i], pool[j])
        pool = [t for k, t in enumerate(pool) if k not in (i, j)] + [merged]

    arr, legs = pool[0]
    if not g.open_legs:
        return DenseTensor(arr.reshape(1), g.field)
    order = {v[0]: v[1] for v in open_ids.values()}
    perm = sorted(range(len(legs)), key=lambda ax: order[legs[ax]])
    return DenseTensor(np.transpose(arr, perm), g.field)


def min_cut(g: TnGraph):
    """Minimal multiplicative cut separating start-tagged from end-tagged legs.

    Every bipartition of the nodes is scored by the product of bond dims of
    crossing edges plus any start/end open legs stranded on the wrong side;
    products are compared exactly over the integers.  Returns the cut value
    and the cut-edge descriptors.  Graphs of more than MIN_CUT_MAX_NODES
    nodes are refused.
    """
    starts = [o for o in g.open_legs if o.side == START]
    ends = [o for o in g.open_legs if o.side == END]
    if not starts or not ends:
        raise ShapeError("min_cut needs both start- and end-tagged open legs")
    node_ids = sorted(g.nodes)
    n = len(node_ids)
    if n > MIN_CUT_MAX_NODES:
        raise ResourceBudgetError(f"min_cut enumeration supports up to "
                                  f"{MIN_CUT_MAX_NODES} nodes, got {n}")
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


@dataclass(frozen=True)
class BasicUnitCount:
    enumerated: int
    closed_form: int

    @property
    def match(self):
        return self.enumerated == self.closed_form


def count_basic_units(L: int, T: int) -> BasicUnitCount:
    """Number of start/end-bridging unit repetitions in the depth-L graph.

    Counts non-decreasing tuples (t_2 <= ... <= t_L) drawn from the second
    half {T/2+1, ..., T}; the closed form is the multiset coefficient
    (T/2 choose-with-repetition L-1).
    """
    if L < 1:
        raise InvalidInputError("L must be >= 1")
    if T % 2 != 0:
        raise ShapeError(f"T must be even, got {T}")
    half = range(T // 2 + 1, T + 1)
    count = sum(1 for _ in itertools.combinations_with_replacement(half, L - 1))
    return BasicUnitCount(enumerated=count,
                          closed_form=multiset_coefficient(T // 2, L - 1))


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
