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
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError, ResourceBudgetError, ShapeError
from .network import RacParams, TemplateEncoder, as_symbols, check_encoder
# perfbench/selftest.py checks that its tracer patches this importer by name
from .network import step_deep  # noqa: F401
from .tensor import EXACT, DenseTensor, clear_denominators

GRID_BUDGET_ENV = "RACSEP_GRID_BUDGET"
DEFAULT_GRID_BUDGET = 10 ** 7


def grid_budget():
    return int(os.environ.get(GRID_BUDGET_ENV, DEFAULT_GRID_BUDGET))


def _check_entries(what, M, T):
    """Refuses an order-T tensor of M^T entries above the grid budget."""
    budget = grid_budget()
    required = M ** T
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
    if not 1 <= c <= p.C:
        raise ParameterError(f"class index {c} out of range [1..{p.C}]")
    _check_entries("weights tensor", p.M, T)
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
    """Order-T tensor of network outputs over all M^T template sequences.

    The grid is built level by level.  After t steps layer l holds the
    states of every length-t prefix, in row-major order, as one R x M^t
    array S_l, and one step extends every prefix by every symbol with one
    batched product per layer,

        S_l <- ((W_h S_l)[:, :, None] * (W_i S_(l-1)).reshape(R, -1, M))
               .reshape(R, -1),

    where S_(l-1) holds the new states of the layer below and S_(-1) = F^T.
    Over the exact field the recursion runs on Python integers: the
    denominators of every weight matrix, h0 and F are cleared once, layer
    l's states carry the one denominator D_l <- dh_l * D_l * di_l * D_(l-1)
    (D_(-1) = dF, D_l starts at den(h0_l)), and each output entry is
    divided by the last layer's at the end.  The entry budget is read from
    the RACSEP_GRID_BUDGET environment variable.
    """
    if enc is None:
        enc = TemplateEncoder.identity(p.M, p.field)
    check_encoder(enc, p.M, p.field)
    if not 1 <= c <= p.C:
        raise ParameterError(f"class index {c} out of range [1..{p.C}]")
    if T < 1:
        raise ShapeError(f"T must be >= 1, got {T}")
    M, R = p.M, p.R
    _check_entries("grid tensor", M, T)

    exact = p.field == EXACT
    form = _integer_form if exact else _float_form
    wi, di = zip(*map(form, p.w_in))
    wh, dh = zip(*map(form, p.w_hidden))
    h0, D = zip(*map(form, p.h0))
    (out, do), (F, dF) = form(p.w_out[c - 1]), form(enc.F)
    S, D = [h[:, None] for h in h0], list(D)
    for _ in range(T):
        below, d_below = F.T, dF
        for l in range(p.L):
            h = ((wh[l] @ S[l])[:, :, None]
                 * (wi[l] @ below).reshape(R, -1, M))
            S[l] = below = h.reshape(R, -1)
            D[l] = d_below = dh[l] * D[l] * di[l] * d_below
    A = out @ S[-1]
    if exact:
        den = do * D[-1]
        A = np.array([Fraction(x, den) for x in A], dtype=object)
    return GridTensor(tensor=DenseTensor(A.reshape((M,) * T), p.field),
                      depth=p.L, class_index=c)
