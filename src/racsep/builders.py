"""Coefficient tensors and grid tensors of multiplicative recurrent networks.

A single-layer multiplicative network evaluated for T steps has a closed
form: the score is a full contraction of an order-T coefficient tensor (the
weights tensor) with the per-step input encodings.  The weights tensor is
assembled by a tensor-train recursion of bond rank R, seeded with W_h h0 so
that any initial state is honoured, one batched matrix product per
time-step; exact tensors are computed in Python integers over one common
denominator.  Grid tensors hold raw network outputs on every length-T symbol
sequence and exist for any depth.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError, ResourceBudgetError, ShapeError
from .network import (RAC_PRODUCT, Nonlinearity, RacParams, TemplateEncoder,
                      as_symbols, step_deep)
from .tensor import EXACT, DenseTensor, clear_denominators

GRID_BUDGET_ENV = "RACSEP_GRID_BUDGET"
DEFAULT_GRID_BUDGET = 10 ** 7


def grid_budget():
    return int(os.environ.get(GRID_BUDGET_ENV, DEFAULT_GRID_BUDGET))


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
    divided by the one common denominator at the end.
    """
    if p.L != 1:
        raise ParameterError("weights tensor is defined for single-layer networks")
    if T < 2:
        raise ShapeError(f"T must be >= 2, got {T}")
    if not 1 <= c <= p.C:
        raise ParameterError(f"class index {c} out of range [1..{p.C}]")
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


def score_from_tensor(w: WeightsTensor, enc: TemplateEncoder, seq) -> object:
    """Full contraction sum_d A_d prod_i F[seq_i, d_i]; a single entry lookup
    when the encoder is the identity."""
    symbols = as_symbols(seq, enc.M)
    t = w.tensor
    if len(symbols) != t.order:
        raise ShapeError(f"sequence length {len(symbols)} != tensor order {t.order}")
    acc = t.data
    for s in symbols:
        acc = np.tensordot(enc.row(s), acc, axes=([0], [0]))
    return acc if np.ndim(acc) == 0 else acc[()]


def build_grid_tensor(p: RacParams, g: Nonlinearity = RAC_PRODUCT,
                      enc: TemplateEncoder = None, c: int = 1,
                      T: int = 2) -> GridTensor:
    """Order-T tensor of network outputs over all M^T template sequences.

    Enumeration shares hidden states across common prefixes, so the cost is
    one network step per grid-trie node rather than T steps per leaf.  The
    entry budget is read from the RACSEP_GRID_BUDGET environment variable.
    """
    if enc is None:
        enc = TemplateEncoder.identity(p.M, p.field)
    if not 1 <= c <= p.C:
        raise ParameterError(f"class index {c} out of range [1..{p.C}]")
    M = p.M
    budget = grid_budget()
    required = M ** T
    if required > budget:
        raise ResourceBudgetError(
            f"grid tensor needs {required} entries, budget is {budget}",
            required=required, budget=budget)

    # object for the exact field; float64 even for integer-typed float weights
    out = np.zeros((M,) * T, dtype=np.result_type(p.w_out, np.float64))

    def walk(states, prefix):
        if len(prefix) == T:
            out[tuple(s - 1 for s in prefix)] = (p.w_out @ states[-1])[c - 1]
            return
        for d in range(1, M + 1):
            walk(step_deep(p, g, states, enc.row(d)), prefix + (d,))

    walk(list(p.h0), ())
    return GridTensor(tensor=DenseTensor(out, p.field), depth=p.L,
                      class_index=c)
