"""Grid tensors, weights tensors and start/end ranks of multiplicative
recurrent networks, all advanced on one level-by-level frontier.

A grid tensor holds a network's outputs on every length-T sequence of
template symbols, for any depth; the frontier (:class:`_Frontier`) builds it
with one batched product per layer per time-step, exact tensors in Python
integers over one common denominator.  A single-layer network's score is the
full contraction of its order-T coefficient tensor (the weights tensor) with
the per-step input encodings, and by the paper's Claim 1 the grid tensor is
the weights tensor with every mode multiplied by the template matrix F; so
the weights tensor is the grid tensor under identity templates.

A network's start/end rank, the Start-End separation rank of its output,
has one entry point (:func:`separation_rank`), which picks the oracle.  An
exact single-layer network needs neither tensor: the frontier advances
every start word's state T/2 steps, an exact column basis of those states
picks r <= R start words, and only their states are advanced the other T/2
steps (the tensor-train view of Khrulkov, Novikov and Oseledets, ICLR
2018).  Every other network is ranked through its grid tensor under
identity templates.  Every array a builder makes counts against
RACSEP_GRID_BUDGET: M^T entries for a weights or grid tensor, R M^(T/2)
and R r M^(T/2) for the two halves of the exact single-layer rank.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError, ResourceBudgetError, ShapeError
from .network import (RacParams, TemplateEncoder, as_symbols, check_class,
                      check_encoder)
# perfbench/selftest.py checks that its tracer patches this importer by name
from .network import step_deep  # noqa: F401
from .ranks import (DEFAULT_REL_TOL, RankReport, column_basis, rank_exact,
                    start_end_rank)
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
class GridTensor:
    """What both tensor builders return: the order-T tensor they built."""

    tensor: DenseTensor


def build_weights_tensor(p: RacParams, c: int = 1, T: int = 2) -> GridTensor:
    """The order-T coefficient tensor A of the single-layer network p for
    class c: the score of any template sequence is the contraction of A with
    its encodings (:func:`score_from_tensor`).

    By Claim 1 the grid tensor is A with every mode multiplied by the
    template matrix F, so A is the grid tensor under identity templates,
    advanced from the initial state p.h0 on the grid's frontier.  The entry
    budget is the grid tensors' RACSEP_GRID_BUDGET.
    """
    if p.L != 1:
        raise ParameterError("weights tensor is defined for single-layer networks")
    if T < 2:
        raise ShapeError(f"T must be >= 2, got {T}")
    return _outputs(p, _identity(p), c, T, "weights tensor")


def score_from_tensor(w: GridTensor, enc: TemplateEncoder, seq) -> object:
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
    if enc is not None:
        check_encoder(enc, p.M, p.field)
    if T < 1:
        raise ShapeError(f"T must be >= 1, got {T}")
    return _outputs(p, _identity(p) if enc is None else enc.F, c, T,
                    "grid tensor")


def _identity(p):
    """The identity templates' M x M matrix in p's field (Python ints over
    the exact field, which the frontier takes as they are)."""
    return np.eye(p.M, dtype=object if p.field == EXACT else np.float64)


def _outputs(p, F, c, T, what):
    """The tensor ``what`` of p's class-c outputs on all M^T sequences of
    the templates F, advanced from h0 on one :class:`_Frontier` and divided
    by its one denominator over the exact field."""
    check_class(p, c)
    _check_entries(what, p.M ** T)
    net = _Frontier(p, F, c)
    S, D = net.advance(net.h0, net.D0, T)
    A = net.out @ S[-1]
    if p.field == EXACT:
        den = net.do * D[-1]
        A = np.array([Fraction(x, den) for x in A], dtype=object)
    return GridTensor(DenseTensor(A.reshape((p.M,) * T), p.field))


def separation_rank(p: RacParams, T: int, c: int = 1,
                    rel_tol: float = DEFAULT_REL_TOL) -> RankReport:
    """The Start-End separation rank of network p's class-c output on
    length-T sequences: the rank of the start/end matricization of its grid
    tensor under identity templates (its weights tensor when L = 1), exact
    for the exact field and by SVD with ``rel_tol`` for the float field.

    An exact single-layer network is ranked without building either tensor.
    Row s of the matricization G holds the outputs, over every end word, of
    start word s's hidden state after T/2 steps, and is linear in that
    state: G = A C with row s of A that state.  So the start words of an
    exact column basis of the R x M^(T/2) mid-sequence state array (A
    transposed) give r <= R rows of G, G_S, that span G's rows, and
    rank G = rank G_S.  Only those r states are advanced the other T/2
    steps.
    """
    if T < 2 or T % 2:
        raise ShapeError(f"T must be even and >= 2, got {T}")
    if p.L != 1 or p.field != EXACT:
        return start_end_rank(build_grid_tensor(p, c=c, T=T).tensor, rel_tol)
    check_class(p, c)
    half, width = T // 2, p.M ** (T // 2)
    net = _Frontier(p, _identity(p), c)
    _check_entries("mid-sequence state array", p.R * width)
    [mid], D = net.advance(net.h0, net.D0, half)
    basis = column_basis(mid)
    _check_entries("end-half state array", p.R * len(basis) * width)
    [ends], _ = net.advance([mid[:, basis]], D, half)
    return rank_exact((net.out @ ends).reshape(len(basis), width))


def _integer_form(a):
    """(n, d): an object array n of Python ints and an int d with a == n / d."""
    ints, den = clear_denominators(a.reshape(-1))
    return np.array(ints, dtype=object).reshape(a.shape), den


def _float_form(a):
    """(a as float64, 1): the float counterpart of :func:`_integer_form`."""
    return np.asarray(a, dtype=np.float64), 1


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
