"""Grid tensors and start/end ranks of multiplicative recurrent networks,
all advanced on one level-by-level frontier.

A grid tensor holds a network's outputs on every length-T sequence of
template symbols, for any depth; the frontier (:class:`_Frontier`) builds it
with one batched product per layer per time-step, exact tensors in Python
integers over one common denominator.  A single-layer network's score is the
full contraction of its order-T coefficient tensor (the weights tensor) with
the per-step input encodings, and by the paper's Claim 1 the grid tensor is
the weights tensor with every mode multiplied by the template matrix F; so
the weights tensor is the grid tensor under identity templates, and for a
non-singular F the two have one start/end rank.

A network's start/end rank, the Start-End separation rank of its output,
has one entry point (:func:`separation_rank`), which builds no tensor.  Row
s of the start/end matricization G holds the outputs, over every end word,
of start word s's states after T/2 steps, so one walk
(:meth:`_Frontier.walk`) advances every start word T/2 steps, keeps start
words S whose rows G_S span G's rows (so rank G = rank G_S) and advances
only theirs T/2 more.  Start words whose mid-sequence states are, layer by
layer, nonzero multiples of each other have proportional rows
(:func:`_state_classes`).  An exact network of depth L <= 2 factors
G = Phi C, with column s of Phi the lifted mid-sequence state of start
word s and C depending on the end words only: the hidden state h itself at
L = 1 (the tensor-train view of Khrulkov, Novikov and Oseledets, ICLR
2018), and h2 (x) Sym^(T/2)(h1) at L = 2 (the weighted-automaton view of
Rabusseau, Li and Precup, AISTATS 2019), K = R multiset(R, T/2)
coordinates, whatever the templates.  Start words whose lifted states
span Phi's columns therefore have rows that span G's, and an exact column
basis keeps at most K of them.  A rank mod the prime ranks.PRIME (the
walk on :meth:`_Frontier.mod_p`, int64 arrays) never exceeds the rank over
the rationals, so one that meets a proven upper bound is exact
(ranks.full_rank_mod_p certifies it).  Every state array a walk builds
counts against RACSEP_GRID_BUDGET, read once per frontier: R entries per
prefix it holds, and K per kept start word for the lifted array.
"""

from __future__ import annotations

import copy
import itertools
from fractions import Fraction

import numpy as np

from .errors import ParameterError, check_budget, grid_budget
from .network import (Cell, RacParams, TemplateEncoder, check_class,
                      check_encoder, check_steps)
# perfbench/selftest.py checks that its tracer patches this importer by name
from .network import step_deep  # noqa: F401
from .ranks import (DEFAULT_REL_TOL, PRIME, RankReport, column_basis,
                    full_rank_mod_p, independent_mod_p, multiset_coefficient,
                    primitive_row, rank_exact, rank_numeric)
from .tensor import EXACT, DenseTensor, split_denominator

def build_grid_tensor(p: RacParams, enc: TemplateEncoder = None, c: int = 1,
                      T: int = 2) -> DenseTensor:
    """Order-T tensor of network p's class-c outputs over all M^T sequences
    of the templates ``enc`` (the identity templates when None), advanced
    level by level from h0 on one :class:`_Frontier`, which checks its
    R x M^T state arrays against RACSEP_GRID_BUDGET, and divided by the
    frontier's one denominator if that is not 1 (it is 1 over the float
    field and for integer weights, h0 and templates).
    """
    check_steps(T)
    net = _Frontier(p, _templates(p, enc), c)
    S, D = net.advance(net.h0, net.D0, T, "grid tensor state array")
    A, den = net.out @ S[-1], net.do * D[-1]
    A = A if den == 1 else A / Fraction(den)
    return DenseTensor(A.reshape((p.M,) * T), p.field)


def build_weights_tensor(p: RacParams, c: int = 1, T: int = 2) -> DenseTensor:
    """The order-T coefficient tensor A of the single-layer network p for
    class c, whose contraction with the encodings of a template sequence is
    its score.  By Claim 1 the grid tensor is A with every mode multiplied
    by the template matrix F, so A is the grid under identity templates."""
    if p.L != 1:
        raise ParameterError("weights tensor is defined for single-layer networks")
    return build_grid_tensor(p, None, c, T)


def _templates(p, enc):
    """The template matrix F of ``enc``, which must encode p's M symbols in
    p's field; the identity in p's field (exact: ints) when ``enc`` is
    None."""
    if enc is None:
        return np.eye(p.M, dtype=object if p.field == EXACT else np.float64)
    check_encoder(enc, p.M, p.field)
    return enc.F


def separation_rank(p: RacParams, T: int, c: int = 1,
                    rel_tol: float = DEFAULT_REL_TOL,
                    enc: TemplateEncoder = None) -> RankReport:
    """The Start-End separation rank of network p's class-c output on
    length-T sequences: the rank of the start/end matricization G of its
    grid tensor under the templates ``enc`` (identity templates when None,
    so the weights tensor when L = 1), exact for the exact field and by SVD
    with ``rel_tol`` for the float field.  A T that is odd or below 2 is
    refused by :class:`Cell`.

    The oracle is chosen here, and each takes one frontier walk.  A float
    network keeps every start word.  An exact single-layer network first
    walks mod p, keeping at most R start words whose states are
    independent mod p; if it keeps min{R, M^(T/2)}, the shallow law's
    proven upper bound, and their rows of G pass :func:`full_rank_mod_p`
    (as in :func:`rank_exact`), that is the exact rank.  Otherwise, as for
    every other exact network, the walk keeps the start words of
    :func:`_start_basis` and ranks G_S with :func:`rank_exact` on the
    frontier's integers: a common denominator does not change a rank."""
    cell = Cell(p.M, p.R, T, p.L)
    net = _Frontier(p, _templates(p, enc), c)
    if p.field != EXACT:
        return rank_numeric(net.walk(cell), rel_tol)
    if p.L == 1:
        G = net.mod_p().walk(
            cell, lambda S: independent_mod_p(S[0].T.tolist(), p.R))
        if len(G) == min(p.R, cell.width) and full_rank_mod_p(G.tolist(),
                                                              cell.width):
            return RankReport(rank=len(G), method="exact")
    return rank_exact(net.walk(
        cell, lambda S: _start_basis(S, cell.half, net.budget)))


def _start_basis(S, half, budget):
    """Indices, ascending, of the start words an exact walk keeps, given
    their per-layer mid-sequence states ``S`` (R x n integer arrays): one
    per state class (:func:`_state_classes`), and at L <= 2, if these
    outnumber the K rows of their lifted states Phi (:func:`_lifted_states`),
    only those of an exact column basis of Phi: their rows of G = Phi C span
    the others.  Phi counts against ``budget`` as the "lifted mid-sequence
    state array" before it is built."""
    keep = _state_classes(S)
    if len(S) > 2:
        return keep
    R, degree = S[0].shape[0], half if len(S) == 2 else 0
    K = R * multiset_coefficient(R, degree)
    if len(keep) <= K:
        return keep
    check_budget("lifted mid-sequence state array", K * len(keep), budget)
    lifted = _lifted_states([s[:, keep] for s in S], degree)
    return [keep[j] for j in column_basis(lifted)]


def _lifted_states(S, degree):
    """The K x n array Phi of the lifted states of n start words with
    per-layer states ``S`` at L <= 2: S[0] itself at L = 1 (K = R), and at
    L = 2 column j is h2_j (x) every degree-``degree`` monomial of h1_j
    (K = R multiset(R, degree)), one R-row block per monomial.

    From the middle of the sequence each step of layer 1 is linear in its
    own state, and each step of layer 2 is linear in its own state and in
    layer 1's new state.  After ``degree`` = T/2 more steps every output is
    therefore linear in h2 and homogeneous of degree T/2 in h1: a linear
    form in the lifted state whose coefficients depend on the end word only
    (the weighted-automaton view of linear second-order RNNs of Rabusseau,
    Li and Precup, AISTATS 2019)."""
    if len(S) == 1:
        return S[0]
    h1, h2 = S
    return np.concatenate([h2 * np.prod(h1[list(m)], axis=0) for m in
                           itertools.combinations_with_replacement(
                               range(h1.shape[0]), degree)])


def _state_classes(S):
    """Indices, ascending, of one start word per class of the exact
    per-layer states ``S`` (R x n integer arrays): two words are in one
    class when, layer by layer, their states are nonzero multiples of each
    other.  A word with a zero state in some layer is in none.

    Each layer's step is bilinear in its own state and the new state of the
    layer below, so per-layer factors carry through every later step as
    factors free of the symbols, and two words of one class have
    proportional rows in G.  A zero layer stays zero and zeroes every layer
    above it from the next step on, so its word's row is zero."""
    first = {}
    for j, states in enumerate(zip(*(s.T.tolist() for s in S))):
        key = tuple(map(primitive_row, states))
        if None not in key:
            first.setdefault(key, j)
    return list(first.values())


def _residues(a):
    """The integer object array ``a`` reduced mod PRIME, as int64."""
    return (a % PRIME).astype(np.int64)


class _Frontier:
    """A network's weights for class c and encoder matrix F, and the
    level-by-level step on states of many prefixes at once, under the entry
    budget (errors.grid_budget) read when the frontier is built.

    Layer l keeps the states of n prefixes, in row-major order, as one
    R x n array S_l, and one step extends every prefix by every symbol with
    one batched product per layer,

        S_l <- ((W_h S_l)[:, :, None] * (W_i S_(l-1)).reshape(R, -1, M))
               .reshape(R, -1),

    where S_(l-1) holds the new states of the layer below and S_(-1) = F^T,
    so layer 0's input term W_i F^T is computed once.  Over the exact field
    the step runs on Python integers: every weight matrix, h0 and F is
    split once into integers over one denominator (split_denominator, which
    leaves a float array as it is over 1), layer l's states carry the one
    denominator D_l <- dh_l * D_l * di_l * D_(l-1) (D_(-1) = dF, D_l starts
    at den(h0_l)).  Its mod-p form (:meth:`mod_p`) runs the same step on
    int64 residues.
    """

    modulus = None  # PRIME on the mod-p form

    def __init__(self, p, F, c):
        check_class(p, c)
        self.budget = grid_budget()
        self.wi, self.di = zip(*map(split_denominator, p.w_in))
        self.wh, self.dh = zip(*map(split_denominator, p.w_hidden))
        (self.out, self.do), (F, dF) = map(split_denominator,
                                           (p.w_out[c - 1], F))
        # layer 0's input term W_i F^T is the same at every step
        self.x0, self.dx0 = self.wi[0] @ F.T, self.di[0] * dF
        h0, D0 = zip(*map(split_denominator, p.h0))
        self.h0, self.D0 = [h[:, None] for h in h0], list(D0)

    def mod_p(self):
        """This exact frontier over the integers mod PRIME: every cleared
        integer weight reduced into an int64 array, and every product of
        :meth:`advance` reduced mod p.  The denominators are dropped: the
        integer walk computes D times the states for one nonzero integer D,
        and reduction mod p commutes with the walk.  Every int64 matrix
        product then sums R products of two residues, each below 2^42 (W_i
        F^T is reduced after its product in integers), and no sum wraps:
        every network that can be built has R < 2^21, since a wider R x R
        hidden matrix alone would hold 2^42 object pointers (32 TiB)."""
        net = copy.copy(self)
        net.modulus = PRIME
        net.wi = [_residues(w) for w in self.wi]
        net.wh = [_residues(w) for w in self.wh]
        net.out, net.x0 = _residues(self.out), _residues(self.x0)
        net.h0 = [_residues(h) for h in self.h0]
        return net

    def advance(self, S, D, t, what):
        """The per-layer states ``S`` over denominators ``D`` after t more
        steps: new lists, each R x n array now R x n M^t, which counts as
        ``what`` against the frontier's grid budget before it is built."""
        R, M = S[0].shape[0], self.x0.shape[1]
        check_budget(what, S[0].size * M ** t, self.budget)
        S, D, mod = list(S), list(D), self.modulus
        for _ in range(t):
            b, d_b = self.x0, self.dx0
            for l in range(len(S)):
                if l:  # the new states of the layer below
                    b, d_b = self.wi[l] @ S[l - 1], self.di[l] * D[l - 1]
                a = self.wh[l] @ S[l]
                if mod:
                    a, b = a % mod, b % mod
                h = a[:, :, None] * b.reshape(R, -1, M)
                S[l] = (h % mod if mod else h).reshape(R, -1)
                D[l] = self.dh[l] * D[l] * d_b
        return S, D

    def walk(self, cell, select=None):
        """The rows G_S of the start/end matricization G of the kept start
        words S, as an |S| x M^(T/2) array: every start word's states are
        advanced T/2 steps, ``select`` picks the indices S from their
        per-layer mid-sequence states (every start word when None), and only
        theirs are advanced the other T/2 steps."""
        S, D = self.advance(self.h0, self.D0, cell.half,
                            "mid-sequence state array")
        if select is not None:
            keep = select(S)
            S = [s[:, keep] for s in S]
        S, _ = self.advance(S, D, cell.half, "end-half state array")
        return (self.out @ S[-1]).reshape(-1, cell.width)
