"""Step-by-step evaluation of multiplicative recurrent networks.

Each layer merges hidden state and input by element-wise product:
h_t = (W_h h_{t-1}) * (W_i f(x_t)).  Inputs are symbols in [1..M] mapped
through a template encoder: f(x^(d)) is row d of the encoder matrix F.
Biases are omitted throughout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ParameterError, ShapeError, is_integer
from .ranks import rank_exact, rank_numeric, solve_exact
from .tensor import (EXACT, DenseTensor, TextReader, exact_array, field_of,
                     format_scalars, header_ints)


# the merge of hidden-state and input terms: the element-wise product
RAC_PRODUCT = operator.mul


def neutral_h0(w_hidden):
    """Initial state solving W_h h0 = 1, so the first update sees all-ones;
    ParameterError unless W_h is square and non-singular."""
    if w_hidden.ndim != 2 or w_hidden.shape[0] != w_hidden.shape[1]:
        raise ParameterError(
            f"hidden weights matrix must be square, got {w_hidden.shape}")
    n = w_hidden.shape[0]
    if field_of(w_hidden) == EXACT:
        return solve_exact(w_hidden, [1] * n)
    try:
        return np.linalg.solve(w_hidden, np.ones(n))
    except np.linalg.LinAlgError:
        raise ParameterError("singular hidden weights matrix") from None


@dataclass(frozen=True)
class Cell:
    """A grid point: M templates, width R, depth L and an even T, split into
    the start and end halves; it iterates as its (M, R, T, L) tuple.  A
    bool is not an integer here, as in :func:`check_steps`."""

    M: int
    R: int
    T: int
    L: int = 1

    def __post_init__(self):
        bad = [f"{k} = {v}" for k, v in zip("MRTL", self)
               if not is_integer(v) or v < 1 or k == "T" and v % 2]
        if bad:
            raise ShapeError("a cell needs integers M, R, L >= 1 and an even "
                             f"T >= 2, got {', '.join(bad)}")

    def __iter__(self):
        return iter((self.M, self.R, self.T, self.L))

    @property
    def half(self):
        return self.T // 2

    @property
    def width(self):  # M^(T/2), the side of the start/end matricization
        return self.M ** self.half


def check_steps(T):
    """Raises ShapeError unless ``T``, a number of time-steps, is an integer
    >= 1 (a bool is not)."""
    if not is_integer(T) or T < 1:
        raise ShapeError(f"T must be an integer >= 1, got {T!r}")


@dataclass
class RacParams:
    """All learned weights and initial hidden states of an L-layer network.

    w_in[0] is R x M; deeper w_in are R x R.  Every w_hidden is R x R and
    w_out is C x R.  h0 defaults to the neutral choice W_h^-1 1 per layer
    (requires invertible hidden matrices).  Exact parameters hold copies of
    the given arrays, every entry in its one form (:func:`_exact_forms`).
    """

    w_in: list
    w_hidden: list
    w_out: np.ndarray
    h0: list = None
    field: str = field(init=False, default=None)

    def __post_init__(self):
        if len(self.w_in) != len(self.w_hidden):
            raise ParameterError("w_in and w_hidden must have one matrix per layer")
        if not self.w_in:
            raise ParameterError("at least one layer required")
        mats = [*self.w_in, *self.w_hidden, self.w_out,
                *(() if self.h0 is None else self.h0)]
        fields = {field_of(m) if isinstance(m, np.ndarray) else None for m in mats}
        if len(fields) != 1 or None in fields:
            raise ParameterError("weights and h0 must be arrays of one scalar field")
        (self.field,) = fields
        if self.field == EXACT:
            self.w_in = _exact_forms(self.w_in)
            self.w_hidden = _exact_forms(self.w_hidden)
            [self.w_out] = _exact_forms([self.w_out])
            if self.h0 is not None:
                self.h0 = _exact_forms(self.h0)
        for name, m in (("w_in[0]", self.w_in[0]), ("w_out", self.w_out)):
            if m.ndim != 2:
                raise ParameterError(f"{name} must be a matrix, got shape {m.shape}")
        R = self.w_in[0].shape[0]
        for l, m in enumerate(self.w_in):
            expected = (R, self.M) if l == 0 else (R, R)
            if m.shape != expected:
                raise ParameterError(f"w_in[{l}] must be {expected}, got {m.shape}")
        for l, m in enumerate(self.w_hidden):
            if m.shape != (R, R):
                raise ParameterError(f"w_hidden[{l}] must be ({R},{R}), got {m.shape}")
        if self.w_out.shape[1] != R:
            raise ParameterError(f"w_out must have {R} columns")
        if not (R and self.M and self.C):
            raise ParameterError(
                f"R, M and C must be >= 1, got {R}, {self.M}, {self.C}")
        if self.h0 is None:
            self.h0 = [neutral_h0(w) for w in self.w_hidden]
        if len(self.h0) != self.L or any(h.shape != (R,) for h in self.h0):
            raise ParameterError("h0 must hold one length-R vector per layer")

    @property
    def L(self):
        return len(self.w_in)

    @property
    def R(self):
        return self.w_in[0].shape[0]

    @property
    def M(self):
        return self.w_in[0].shape[1]

    @property
    def C(self):
        return self.w_out.shape[0]


def _exact_forms(arrays):
    """The exact ``arrays`` with every entry in its one form, through
    :func:`exact_array` (a float 0.5 becomes Fraction(1, 2)); an entry that
    is not rational raises ParameterError."""
    try:
        return [exact_array(m) for m in arrays]
    except InvalidInputError as e:
        raise ParameterError(f"exact weights must be rational: {e}") from None


@dataclass(frozen=True)
class TemplateEncoder:
    """Fixed input grid: F[d-1] is the encoding of the d-th template symbol."""

    F: np.ndarray

    def __post_init__(self):
        if self.F.ndim != 2 or self.F.shape[0] != self.F.shape[1]:
            raise ParameterError("encoder matrix must be square")
        rank = rank_exact if field_of(self.F) == EXACT else rank_numeric
        if rank(self.F).rank != self.M:
            raise ParameterError("encoder matrix must be non-singular")

    @classmethod
    def identity(cls, M, field=EXACT):
        return cls(DenseTensor(np.eye(M, dtype=int), field).data)

    @property
    def M(self):
        return self.F.shape[0]

    @property
    def field(self):
        return field_of(self.F)

    def row(self, symbol):
        return self.F[symbol - 1]


def as_symbols(seq, M):
    """The symbols of ``seq`` as a tuple of ints; each must be an integer in
    [1..M], one per time-step."""
    symbols = tuple(seq)
    if not all(is_integer(s) and 1 <= s <= M for s in symbols):
        raise InvalidInputError(
            f"symbols must be integers in [1..{M}], got {symbols}")
    return tuple(map(int, symbols))


def check_encoder(enc: TemplateEncoder, M, field):
    """Raises ParameterError unless ``enc`` encodes M symbols in ``field``."""
    if enc.M != M:
        raise ParameterError(f"encoder dim {enc.M} != network input dim {M}")
    if enc.field != field:
        raise ParameterError("encoder and parameters must share one scalar field")


def check_class(p: RacParams, c):
    """Raises ParameterError unless c, an integer (a bool is not), indexes
    one of p's C output classes."""
    if not is_integer(c) or not 1 <= c <= p.C:
        raise ParameterError(
            f"class index must be an integer in [1..{p.C}], got {c!r}")


def step_deep(p: RacParams, g, states, encoded):
    """Advance every layer one time-step, merging the hidden-state and input
    terms with ``g``; returns the new per-layer states."""
    below = encoded
    new = []
    for l in range(p.L):
        h = g(p.w_hidden[l] @ states[l], p.w_in[l] @ below)
        new.append(h)
        below = h
    return new


def forward_deep(p: RacParams, g, enc: TemplateEncoder, seq):
    """Class scores after the final time-step of an L-layer network, exact
    ones in their one form (:func:`exact_array`)."""
    check_encoder(enc, p.M, p.field)
    symbols = as_symbols(seq, p.M)
    states = list(p.h0)
    for s in symbols:
        states = step_deep(p, g, states, enc.row(s))
    scores = p.w_out @ states[-1]
    return exact_array(scores) if p.field == EXACT else scores


# ---------------------------------------------------------------------------
# Parameter serialization: flat self-describing text, matrices row-major,
# rationals stored as "num/den".

PARAMS_TAG = "racsep-params v1"


def dump_params(p: RacParams) -> str:
    lines = [PARAMS_TAG,
             f"L {p.L}", f"R {p.R}", f"M {p.M}", f"C {p.C}", f"field {p.field}"]

    def emit(name, mat):
        lines.append(f"{name} {' '.join(map(str, mat.shape))}")
        lines.extend(format_scalars(np.asarray(mat).reshape(-1), p.field))

    for l, m in enumerate(p.w_in):
        emit(f"w_in {l}", m)
    for l, m in enumerate(p.w_hidden):
        emit(f"w_hidden {l}", m)
    emit("w_out", p.w_out)
    for l, h in enumerate(p.h0):
        emit(f"h0 {l}", h)
    return "\n".join(lines) + "\n"


def parse_params(text: str) -> RacParams:
    r = TextReader(text, PARAMS_TAG, "parameters")
    L, *sizes = (header_ints(r.words(key, 1))[0] for key in "LRMC")
    r.field()

    def block(key, *index):
        """The block headed ``key *index dims...``."""
        nums = header_ints(r.words(key))
        if nums[:len(index)] != index:
            raise InvalidInputError(
                f"expected a {' '.join(map(str, (key,) + index))} block, "
                f"got {' '.join(map(str, (key,) + nums))!r}")
        return r.block(nums[len(index):])

    w_in = [block("w_in", l) for l in range(L)]
    w_hidden = [block("w_hidden", l) for l in range(L)]
    w_out = block("w_out")
    h0 = [block("h0", l) for l in range(L)]
    r.end("the h0 blocks")
    p = RacParams(w_in=w_in, w_hidden=w_hidden, w_out=w_out, h0=h0)
    if [p.R, p.M, p.C] != sizes:
        raise InvalidInputError(
            f"header R M C = {sizes} but the blocks have {[p.R, p.M, p.C]}")
    return p
