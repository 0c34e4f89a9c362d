"""Coefficient tensors and grid tensors of multiplicative recurrent networks.

A single-layer multiplicative network evaluated for T steps has a closed
form: the score is a full contraction of an order-T coefficient tensor (the
weights tensor) with the per-step input encodings.  The weights tensor is
assembled by a tensor-train recursion of bond rank R, seeded with W_h h0 so
that any initial state is honoured, one batched matrix product per
time-step; exact tensors are computed in Python integers over one common
denominator.  Grid tensors hold raw network outputs on every length-T symbol
sequence and exist for any depth; they are built the same way, one batched
product per layer per time-step.

The exact start/end rank of a single-layer network needs neither tensor
(:func:`factored_start_end_rank`): the grid's frontier advances every start
word's state T/2 steps, an exact column basis of those states picks r <= R
start words, and only their states are advanced the other T/2 steps (the
tensor-train view of Khrulkov, Novikov and Oseledets, ICLR 2018).
Every array a builder makes counts against RACSEP_GRID_BUDGET: M^T entries
for a weights or grid tensor, R M^(T/2) and R r M^(T/2) for the two halves
of the factored rank.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (FieldMismatchError, ParameterError, ResourceBudgetError,
                     ShapeError)
from .network import RacParams, TemplateEncoder, as_symbols, check_encoder
# perfbench/selftest.py checks that its tracer patches this importer by name
from .network import step_deep  # noqa: F401
from .ranks import RankReport, column_basis, rank_exact
from .tensor import EXACT, DenseTensor, clear_denominators

GRID_BUDGET_ENV = "RACSEP_GRID_BUDGET"
DEFAULT_GRID_BUDGET = 10 ** 7


def grid_budget():
    return int(os.environ.get(GRID_BUDGET_ENV, DEFAULT_GRID_BUDGET))


def _check_entries(what, required):
    """Refuses an array of ``required`` entries above the grid budget."""
    budget = grid_budget()
    if required > budget:
        raise ResourceBudgetError(
            f"{what} needs {required} entries, budget is {budget}",
            required=required, budget=budget)


@dataclass(frozen=True)
class WeightsTensor:
    tensor: DenseTensor
    class_index: int
    tt_rank: int


@dataclass(frozen=True)
class GridTensor:
    tensor: DenseTensor
    depth: int
    class_index: int


def build_weights_tensor(p: RacParams, c: int = 1, T: int = 2) -> WeightsTensor:
    """Tensor-train assembly of the order-T coefficient tensor for class c.

    With s = Wh h0 the hidden input of the first step and phi_t the R x M^t
    matrix whose row b holds (Wh h_t)[b] for every input word d_1..d_t, the
    recursion is

        phi_1 = Wh (s[:, None] * Wi)
        phi_t = Wh (phi_{t-1} x Wi)      (row-wise outer product, flattened)
        A     = Wo[c] (phi_{T-1} x Wi)

    which reproduces the step-by-step forward pass from the initial state
    p.h0.  Over the exact field the recursion runs on Python integers: the
    denominators of Wi, Wh, Wo[c] and s are cleared once, and every entry is
    divided by the one common denominator at the end.  The entry budget is
    the grid tensors' RACSEP_GRID_BUDGET.
    """
    if p.L != 1:
        raise ParameterError("weights tensor is defined for single-layer networks")
    if T < 2:
        raise ShapeError(f"T must be >= 2, got {T}")
    _check_class(p, c)
    _check_entries("weights tensor", p.M ** T)
    wi, wh, out = p.w_in[0], p.w_hidden[0], p.w_out[c - 1]
    s = wh @ p.h0[0]
    if p.field == EXACT:
        (wi, di), (wh, dh), (out, do), (s, ds) = map(
            _integer_form, (wi, wh, out, s))
    R = p.R

    def extend(phi):
        return (phi[:, :, None] * wi[:, None, :]).reshape(R, -1)

    phi = wh @ (s[:, None] * wi)
    for _ in range(2, T):
        phi = wh @ extend(phi)
    A = out @ extend(phi)
    if p.field == EXACT:
        den = ds * di ** T * dh ** (T - 1) * do
        A = np.array([Fraction(x, den) for x in A], dtype=object)
    A = A.reshape((p.M,) * T)
    return WeightsTensor(tensor=DenseTensor(A, p.field), class_index=c, tt_rank=R)


def _integer_form(a):
    """(n, d): an object array n of Python ints and an int d with a == n / d."""
    ints, den = clear_denominators(a.reshape(-1))
    return np.array(ints, dtype=object).reshape(a.shape), den


def _float_form(a):
    """(a as float64, 1): the float counterpart of :func:`_integer_form`."""
    return np.asarray(a, dtype=np.float64), 1


def score_from_tensor(w: WeightsTensor, enc: TemplateEncoder, seq) -> object:
    """Full contraction sum_d A_d prod_i F[seq_i, d_i]; a single entry lookup
    when the encoder is the identity."""
    t = w.tensor
    check_encoder(enc, t.dims[0], t.field)
    symbols = as_symbols(seq, enc.M)
    if len(symbols) != t.order:
        raise ShapeError(f"sequence length {len(symbols)} != tensor order {t.order}")
    acc = t.data
    for s in symbols:
        acc = np.tensordot(enc.row(s), acc, axes=([0], [0]))
    return acc if np.ndim(acc) == 0 else acc[()]


def build_grid_tensor(p: RacParams, enc: TemplateEncoder = None, c: int = 1,
                      T: int = 2) -> GridTensor:
    """Order-T tensor of network outputs over all M^T template sequences,
    advanced level by level from h0 (see :class:`_Frontier`).  The entry
    budget is read from the RACSEP_GRID_BUDGET environment variable.
    """
    if enc is None:
        enc = TemplateEncoder.identity(p.M, p.field)
    check_encoder(enc, p.M, p.field)
    _check_class(p, c)
    if T < 1:
        raise ShapeError(f"T must be >= 1, got {T}")
    _check_entries("grid tensor", p.M ** T)
    net = _Frontier(p, enc.F, c)
    S, D = net.advance(net.h0, net.D0, T)
    A = net.out @ S[-1]
    if p.field == EXACT:
        den = net.do * D[-1]
        A = np.array([Fraction(x, den) for x in A], dtype=object)
    return GridTensor(tensor=DenseTensor(A.reshape((p.M,) * T), p.field),
                      depth=p.L, class_index=c)


def factored_start_end_rank(p: RacParams, T: int, c: int = 1) -> RankReport:
    """Exact rank of the start/end matricization G of the single-layer
    network p's order-T weights tensor for class c, without building it.

    Row s of G holds the outputs, over every end word, of start word s's
    hidden state after T/2 steps, and is linear in that state: G = A C with
    row s of A that state.  So the start words of an exact column basis of
    the R x M^(T/2) mid-sequence state array (A transposed) give r <= R rows
    of G, G_S, that span G's rows, and rank G = rank G_S.  Only those r
    states are advanced the other T/2 steps.
    """
    if p.L != 1:
        raise ParameterError(
            "factored start/end rank is defined for single-layer networks")
    if p.field != EXACT:
        raise FieldMismatchError(
            "factored start/end rank requires the exact scalar field")
    if T < 2 or T % 2:
        raise ShapeError(f"T must be even and >= 2, got {T}")
    _check_class(p, c)
    half, width = T // 2, p.M ** (T // 2)
    net = _Frontier(p, np.eye(p.M, dtype=object), c)
    _check_entries("mid-sequence state array", p.R * width)
    [mid], D = net.advance(net.h0, net.D0, half)
    basis = column_basis(mid)
    _check_entries("end-half state array", p.R * len(basis) * width)
    [ends], _ = net.advance([mid[:, basis]], D, half)
    return rank_exact((net.out @ ends).reshape(len(basis), width))


def _check_class(p, c):
    if not 1 <= c <= p.C:
        raise ParameterError(f"class index {c} out of range [1..{p.C}]")


class _Frontier:
    """A network's weights for class c and encoder matrix F, and the
    level-by-level step on states of many prefixes at once.

    Layer l keeps the states of n prefixes, in row-major order, as one
    R x n array S_l, and one step extends every prefix by every symbol with
    one batched product per layer,

        S_l <- ((W_h S_l)[:, :, None] * (W_i S_(l-1)).reshape(R, -1, M))
               .reshape(R, -1),

    where S_(l-1) holds the new states of the layer below and S_(-1) = F^T.
    Over the exact field the step runs on Python integers: the denominators
    of every weight matrix, h0 and F are cleared once, layer l's states
    carry the one denominator D_l <- dh_l * D_l * di_l * D_(l-1)
    (D_(-1) = dF, D_l starts at den(h0_l)).
    """

    def __init__(self, p, F, c):
        form = _integer_form if p.field == EXACT else _float_form
        self.wi, self.di = zip(*map(form, p.w_in))
        self.wh, self.dh = zip(*map(form, p.w_hidden))
        (self.out, self.do), (F, self.dF) = form(p.w_out[c - 1]), form(F)
        self.input = F.T
        h0, D0 = zip(*map(form, p.h0))
        self.h0, self.D0 = [h[:, None] for h in h0], list(D0)

    def advance(self, S, D, t):
        """The per-layer states ``S`` over denominators ``D`` after t more
        steps: new lists, each R x n array now R x n M^t."""
        S, D = list(S), list(D)
        R, M = S[0].shape[0], self.input.shape[1]
        for _ in range(t):
            below, d_below = self.input, self.dF
            for l in range(len(S)):
                h = ((self.wh[l] @ S[l])[:, :, None]
                     * (self.wi[l] @ below).reshape(R, -1, M))
                S[l] = below = h.reshape(R, -1)
                D[l] = d_below = self.dh[l] * D[l] * self.di[l] * d_below
        return S, D
