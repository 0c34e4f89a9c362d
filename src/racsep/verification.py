"""Executable checks of the separation-rank results.

Each check returns a :class:`Report` of :class:`ReportRow` rows for one
(M, R, T, L) cell, under one pass rule: ``required`` rows (exact
constructions) must each pass, and at least a ``DEFAULT_THRESHOLD`` share of
sampled rows (random draws) must pass, which tolerates the measure-zero
parameter sets on which generic rank statements are allowed to fail.
Every network's start/end rank comes from :func:`separation_rank`, which
picks the oracle.  :func:`appendix_b_params` builds the Appendix B network.
:func:`conjectured_bound` is the coded depth-L conjecture and
:func:`suffix_bound` a proven depth-L upper bound, which is the lower of
the two at some cells with R < M.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .builders import separation_rank
from .errors import InvalidInputError, ParameterError, check_count, is_integer
from .network import Cell, RacParams, TemplateEncoder, neutral_h0
from .ranks import DEFAULT_REL_TOL, multiset_coefficient, rank_exact
from .tensor import (EXACT, FLOAT, DenseTensor, check_field, exact_array,
                     hadamard_power)
from .tn import build_mps, min_cut, no_clone_counterexample

DEFAULT_THRESHOLD = 0.95


@dataclass(frozen=True)
class ReportRow:
    check: str
    M: int
    R: int
    T: int
    L: int
    field: str
    seed: str
    observed: str
    expected: str
    passed: bool
    required: bool = True


@dataclass
class Report:
    check: str
    cell: tuple  # a Cell, or the (M, R, T, L) labels of a check without T
    rows: list = dc_field(default_factory=list)

    def add(self, field, seed, observed, expected, passed, required=True):
        self.rows.append(ReportRow(
            self.check, *self.cell, field, seed,
            str(observed), str(expected), passed, required))

    @property
    def fraction(self):
        rows = [r for r in self.rows if not r.required]
        if not rows:
            return 1.0
        return sum(r.passed for r in rows) / len(rows)

    @property
    def passed(self):
        if not self.rows:
            return False
        required_ok = all(r.passed for r in self.rows if r.required)
        return required_ok and self.fraction >= DEFAULT_THRESHOLD


CSV_COLUMNS = ("check", "M", "R", "T", "L", "field", "seed",
               "observed", "expected", "pass")


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([r.check, r.M, r.R, r.T, r.L, r.field, r.seed,
                    r.observed, r.expected, str(r.passed).lower()])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Random parameter draws.  All randomness descends from one 64-bit seed via
# a per-(cell, trial) spawn key, so trials are reproducible independently.

def trial_rng(seed: int, M: int, R: int, T: int, L: int, trial: int):
    """The random stream of one trial of one cell, from an integer seed >= 0.

    A cell with R < 100, T < 100 and L < 10 is keyed on the number
    ((M*100 + R)*100 + T)*10 + L, which is one-to-one there; any other cell
    on (M, R, T, L) itself, so no two cells share a stream.  Each argument
    must be an integer >= 0 (InvalidInputError)."""
    for name, value in zip(("seed", "M", "R", "T", "L", "trial"),
                           (seed, M, R, T, L, trial)):
        check_count(name, value, 0)
    cell = ((((M * 100 + R) * 100 + T) * 10 + L,)
            if R < 100 and T < 100 and L < 10 else (M, R, T, L))
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(*cell, trial)))


def draw_params(rng, M: int, R: int, L: int = 1, field: str = EXACT,
                C: int = 1) -> RacParams:
    """Random network weights: integer entries in [-9, 9] (exact field) or
    uniform on [-1, 1] (float field); singular hidden matrices redrawn."""
    check_field(field)
    # Python ints (an object array); RacParams puts them in the one form
    sample = ((lambda shape: rng.integers(-9, 10, shape).astype(object))
              if field == EXACT else (lambda shape: rng.uniform(-1, 1, shape)))
    for _ in range(100):
        w_in = [sample((R, M if l == 0 else R)) for l in range(L)]
        w_hidden = [sample((R, R)) for _ in range(L)]
        w_out = sample((C, R))
        try:
            h0 = [neutral_h0(w) for w in w_hidden]
        except ParameterError:  # a singular hidden matrix
            continue
        return RacParams(w_in=w_in, w_hidden=w_hidden, w_out=w_out, h0=h0)
    raise ParameterError("could not draw a non-singular hidden matrix")


def draw_trials(seed, cell: Cell, trials, field):
    """``(seed label, params)`` of each of ``trials`` >= 0 trials of one cell,
    each drawn by :func:`draw_params` from its own :func:`trial_rng`; a bad
    ``trials`` or ``field`` is refused here, before the first draw."""
    check_count("trials", trials, 0)
    check_field(field)
    return ((f"{seed}.{trial}", draw_params(
        trial_rng(seed, *cell, trial), cell.M, cell.R, L=cell.L, field=field))
        for trial in range(trials))


def _report(check, cell: Cell, L):
    """An empty Report of ``check``, which is stated at depth L, for cell."""
    if cell.L != L:
        raise ParameterError(f"{check} is stated at depth {L}, got L = {cell.L}")
    return Report(check, cell)


# ---------------------------------------------------------------------------
# The explicit depth-2 assignment attaining the deep lower bound.

def appendix_b_params(M: int, R: int, T: int) -> RacParams:
    """The depth-2 network whose grid matricization has exact rank
    multiset(min{M, R}, T/2); (M, R, T) must make a depth-2 Cell.

    The first-layer input matrix Z has Z[i, j] = z^(Omega^i) on the diagonal
    (i = j <= M), 1 elsewhere in rows i <= M, and 0 in rows i > M; both
    hidden matrices are the identity, the second-layer input matrix has a
    single row of ones, the output row picks the first coordinate, and the
    initial states are all-ones, with z = 2 and Omega = (T/2)^2 + 1.
    """
    Cell(M, R, T, 2)
    omega = (T // 2) ** 2 + 1
    Z = exact_array([[2 ** omega ** (i + 1) if i == j else int(i < M)
                      for j in range(M)] for i in range(R)])
    first = np.eye(1, R, dtype=int)  # the row (1, 0, ..., 0)
    ones = np.ones(R, dtype=int)
    eye, w_in2, w_out, h0 = map(exact_array, (
        np.eye(R, dtype=int), first.T * ones, first, ones))
    return RacParams(w_in=[Z, w_in2], w_hidden=[eye, eye], w_out=w_out,
                     h0=[h0, h0])


# ---------------------------------------------------------------------------
# Theorem checks.

def verify_shallow_rank_law(cell: Cell, trials, field=EXACT, seed=0,
                            rel_tol=DEFAULT_REL_TOL) -> Report:
    """Single-layer law: rank of the matricized weights tensor
    (:func:`separation_rank`) equals min{R, M^(T/2)} almost everywhere, and
    never exceeds it."""
    rep = _report("shallow", cell, 1)
    expected = min(cell.R, cell.width)
    for label, p in draw_trials(seed, cell, trials, field):
        observed = separation_rank(p, cell.T, rel_tol=rel_tol).rank
        if observed > expected:
            # unconditional upper bound: a violation is a hard failure
            rep.add(field, label, observed, f"<={expected}", False)
        else:
            rep.add(field, label, observed, expected, observed == expected,
                    required=False)
    return rep


def verify_deep_lower_bound(cell: Cell, trials=30, seed=0,
                            rel_tol=DEFAULT_REL_TOL) -> Report:
    """Depth-2 lower bound multiset(min{M,R}, T/2): attained exactly by the
    explicit assignment, and met or exceeded by random float draws."""
    rep = _report("deep", cell, 2)
    bound = multiset_coefficient(min(cell.M, cell.R), cell.half)
    observed = separation_rank(appendix_b_params(cell.M, cell.R, cell.T),
                               cell.T).rank
    rep.add(EXACT, "-", observed, bound, observed == bound)
    for label, p in draw_trials(seed, cell, trials, FLOAT):
        r = separation_rank(p, cell.T, rel_tol=rel_tol).rank
        rep.add(FLOAT, label, r, f">={bound}", r >= bound, required=False)
    return rep


def check_claim1_equality(cell: Cell, trials, seed=0) -> Report:
    """Claim 1: the grid tensor is the weights tensor with every mode
    multiplied by the template matrix F, so for a non-singular F the two
    matricizations have equal rank.  Checked draw for draw, each rank by
    :func:`separation_rank`, under fixed templates: the lower-triangular
    all-ones F, of det 1 and not the identity for M >= 2."""
    rep = _report("claim1", cell, 1)
    enc = TemplateEncoder(exact_array(np.tri(cell.M, dtype=int)))
    for label, p in draw_trials(seed, cell, trials, EXACT):
        rg = separation_rank(p, cell.T, enc=enc).rank
        rw = separation_rank(p, cell.T).rank
        rep.add(EXACT, label, rg, rw, rg == rw)
    return rep


def conjectured_bound(cell: Cell):
    """The conjectured depth-L start/end rank bound
    min{multiset(min{M,R}, multiset(T/2, L-1)), M^(T/2)}."""
    inner = multiset_coefficient(cell.half, cell.L - 1)
    return min(multiset_coefficient(min(cell.M, cell.R), inner), cell.width)


def suffix_bound(cell: Cell):
    """V_L = prod_{j=1..T/2} min{M, multiset(R, multiset(j, L-1))}, a proven
    upper bound on the start/end rank at every depth L, for any templates
    and initial state.  Its j = 1 factor is min{M, R}, so where R < M it is
    below M^(T/2), and at some cells below :func:`conjectured_bound`.

    1. There are no biases, so the output is homogeneous in each layer-1
       input term u_t = W_i f(x_t).
    2. Every layer's state at time t is linear in u_t, and a layer-(L-k)
       state at time t enters the output with degree multiset(T-t, k); so u
       at end position T-j+1 has degree sum_k multiset(j-1, k) =
       multiset(j, L-1) =: d_j.
    3. Fix a start word: its row, a function of the T/2 end symbols, lies in
       the tensor product over j of the degree-d_j forms in R variables
       evaluated at the M template points, a space of dimension at most
       prod_j min{M, multiset(R, d_j)}, the same for every row.
    """
    return math.prod(min(cell.M, multiset_coefficient(
        cell.R, multiset_coefficient(j, cell.L - 1)))
        for j in range(1, cell.half + 1))


def check_conjecture_bound(cell: Cell, trials=10, seed=0,
                           rel_tol=DEFAULT_REL_TOL) -> Report:
    """Reports observed grid rank against :func:`conjectured_bound`.

    The bound is CONJECTURE: rows assert only the dimension cap M^(T/2);
    the comparison is recorded in the expected column for inspection.
    """
    bound = conjectured_bound(cell)
    rep = Report("conjecture", cell)
    for label, p in draw_trials(seed, cell, trials, FLOAT):
        r = separation_rank(p, cell.T, rel_tol=rel_tol).rank
        rep.add(FLOAT, label, r, f"conjectured>={bound}", r <= cell.width)
    return rep


# ---------------------------------------------------------------------------
# Lemma suites.

def bucket_states(Rbar: int, k: int):
    """All length-Rbar non-negative integer vectors summing to k; Rbar >= 1
    and k >= 0 must be integers (InvalidInputError)."""
    check_count("Rbar", Rbar, 1)
    check_count("k", k, 0)
    if Rbar == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in bucket_states(Rbar - 1, k - first):
            yield (first,) + rest


def bucket_trajectories(p):
    """All descending chains p -> ... -> level-1 states, one ball removed
    per step; yields the chain excluding the starting state p."""
    if sum(p) == 1:
        yield ()
        return
    for r in range(len(p)):
        if p[r] > 0:
            q = list(p)
            q[r] -= 1
            q = tuple(q)
            for tail in bucket_trajectories(q):
                yield (q,) + tail


def check_decomposition_identity(cell: Cell, seed=0) -> Report:
    """Product-of-partial-sums identity: for any Rbar x M matrix Z (Rbar is
    the cell's R) and every index word d of length T,

        prod_{t=T/2+1..T} sum_r prod_{j<=t} Z[r, d_j]

    equals the double sum over bucket states p (level T/2) and trajectories
    of prod_r prod_{j<=T/2} Z[r,d_j]^p_r * prod_{j>T/2} Z[r,d_j]^chain_j[r],
    where chain_j is the trajectory state in force at step j."""
    rep = _report("decomposition", cell, 1)
    M, Rbar, T, half = cell.M, cell.R, cell.T, cell.half
    Z = trial_rng(seed, *cell, 0).integers(-3, 4, (Rbar, M)).tolist()
    # chain[i] is the state at step half+1+i
    chains = [(p,) + traj for p in bucket_states(Rbar, half)
              for traj in bucket_trajectories(p)]
    mismatches = 0
    for d in itertools.product(range(M), repeat=T):
        start = [math.prod(row[m] for m in d[:half]) for row in Z]
        prefix, lhs = start, 1
        for m in d[half:]:
            prefix = [x * row[m] for x, row in zip(prefix, Z)]
            lhs *= sum(prefix)
        rhs = 0
        for chain in chains:
            term = 1
            for r, row in enumerate(Z):
                term *= start[r] ** chain[0][r]
                for m, state in zip(d[half:], chain):
                    term *= row[m] ** state[r]
            rhs += term
        mismatches += lhs != rhs
    rep.add(EXACT, f"{seed}.0", f"{mismatches} mismatches", "0 mismatches",
            mismatches == 0)
    return rep


def check_rearrangement_lemma(N, Rbar, trials, seed=0) -> Report:
    """Vector rearrangement inequality: for pairwise-distinct non-negative
    vectors v_1..v_N and any permutation s != id,
    sum_i <v_i, v_{s(i)}> < sum_i ||v_i||^2, strictly."""
    if not (is_integer(N) and is_integer(Rbar)) or N < 1 or Rbar < 1:
        raise InvalidInputError(
            f"N and Rbar must be integers >= 1, got {N!r}, {Rbar!r}")
    check_count("trials", trials, 0)
    if N > 6:
        raise InvalidInputError("N must be <= 6 (factorial enumeration)")
    rep = Report("rearrangement", (Rbar, Rbar, 0, 1))
    for trial in range(trials):
        rng = trial_rng(seed, N, Rbar, 0, 1, trial)
        while True:
            vecs = [tuple(int(x) for x in rng.integers(0, 10, Rbar))
                    for _ in range(N)]
            if len(set(vecs)) == N:
                break
        total = sum(sum(x * x for x in v) for v in vecs)
        violations = 0
        for perm in itertools.permutations(range(N)):
            if perm == tuple(range(N)):
                continue
            s = sum(sum(a * b for a, b in zip(vecs[i], vecs[perm[i]]))
                    for i in range(N))
            violations += not s < total
        rep.add(EXACT, f"{seed}.{trial}", f"{violations} non-strict",
                "0 non-strict", violations == 0)
    return rep


def check_bucket_lemma(Rbar, T) -> Report:
    """Optimal-emptying lemma: for every non-decreasing color word d of
    length T/2 the reward max over trajectories of
    sum_j omega^(d_j) * state_j[d_j], with omega = (T/2)^2 + 1, is maximized
    over starting states p, strictly and uniquely, at p-hat with
    p-hat_r = multiplicity of r in d."""
    k = Cell(Rbar, Rbar, T).half
    if Rbar > 3 or k > 4:
        raise InvalidInputError("exhaustive sweep needs Rbar <= 3, T/2 <= 4")
    omega = k ** 2 + 1

    def reward(d, p):
        return max(sum(omega ** c * state[c - 1]
                       for c, state in zip(d, (p,) + traj))
                   for traj in bucket_trajectories(p))

    rep = Report("bucket", (Rbar, Rbar, T, 1))
    for d in itertools.combinations_with_replacement(range(1, Rbar + 1), k):
        phat = tuple(sum(1 for x in d if x == r) for r in range(1, Rbar + 1))
        vals = {p: reward(d, p) for p in bucket_states(Rbar, k)}
        top = max(vals.values())
        argmax = sorted(p for p, v in vals.items() if v == top)
        rep.add(EXACT, "d=" + "".join(map(str, d)), f"argmax={argmax}",
                f"argmax=[{phat}]", argmax == [phat])
    return rep


def check_hadamard_power_bound(trials, seed=0) -> Report:
    """Entrywise p-th powers obey rank(m^(op)) <= multiset(rank(m), p), on
    random 4 x 4 integer matrices and powers p in 1..3."""
    check_count("trials", trials, 0)
    n = 4
    rep = Report("hadamard", (n, n, 0, 1))
    for trial in range(trials):
        rng = trial_rng(seed, n, n, 0, 1, trial)
        m = DenseTensor(rng.integers(-4, 5, (n, n)), EXACT)
        base = rank_exact(m).rank
        p = int(rng.integers(1, 4))
        powered = rank_exact(hadamard_power(m, p)).rank
        bound = multiset_coefficient(base, p)
        rep.add(EXACT, f"{seed}.{trial}", f"rank^{p}={powered}",
                f"<={bound}", powered <= bound)
    return rep


def verify_min_cut(cell: Cell, trials=30, seed=0) -> Report:
    """Min-cut certificate: on the single-layer chain the minimal
    multiplicative cut between start and end legs equals min{R, M^(T/2)}
    structurally, and equals the exact matricization rank
    (:func:`separation_rank`) for almost every draw."""
    rep = _report("mincut", cell, 1)
    structural = min(cell.R, cell.width)
    for label, p in draw_trials(seed, cell, trials, EXACT):
        cut, _ = min_cut(build_mps(p, cell.T))
        if cut != structural:
            rep.add(EXACT, label, f"cut={cut}", f"cut={structural}", False)
            continue
        rank = separation_rank(p, cell.T).rank
        rep.add(EXACT, label, f"rank={rank}", f"rank={cut}", rank == cut,
                required=False)
    return rep


def check_no_cloning(P) -> Report:
    """Super-diagonal duplication works on basis vectors only (P >= 2)."""
    basis, ones = no_clone_counterexample(P)
    rep = Report("noclone", (P, P, 0, 1))
    expect_ones = P == 1
    rep.add(EXACT, "-", f"basis={basis} ones={ones}",
            f"basis=True ones={expect_ones}", basis and ones == expect_ones)
    return rep
