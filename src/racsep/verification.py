"""Executable checks of the separation-rank results.

Each check returns a :class:`Report` of per-trial :class:`ReportRow` rows.
Rows flagged ``required`` must pass individually (exact constructions);
sampled rows (random draws) pass collectively when the passing fraction
reaches the report's threshold, which tolerates the measure-zero parameter
sets on which generic rank statements are allowed to fail.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .builders import build_grid_tensor, build_weights_tensor
from .errors import InvalidInputError, ParameterError
from .network import RacParams
from .ranks import (DEFAULT_REL_TOL, multiset_coefficient, rank_exact,
                    start_end_rank)
from .tensor import EXACT, FLOAT, DenseTensor, exact_array, hadamard_power

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
    rows: list = dc_field(default_factory=list)
    threshold: float = 1.0

    def add(self, **kw):
        self.rows.append(ReportRow(check=self.check, **kw))

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
        return required_ok and self.fraction >= self.threshold


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
    cell = ((M * 100 + R) * 100 + T) * 10 + L
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(cell, trial)))


def _exact_ints(rng, shape):
    return exact_array(rng.integers(-9, 10, shape))


def draw_params(rng, M: int, R: int, L: int = 1, field: str = EXACT,
                C: int = 1) -> RacParams:
    """Random network weights: integer entries in [-9, 9] (exact field) or
    uniform on [-1, 1] (float field); singular hidden matrices redrawn."""
    for _ in range(100):
        if field == EXACT:
            w_in = [_exact_ints(rng, (R, M if l == 0 else R))
                    for l in range(L)]
            w_hidden = [_exact_ints(rng, (R, R)) for _ in range(L)]
            w_out = _exact_ints(rng, (C, R))
        else:
            w_in = [rng.uniform(-1, 1, (R, M if l == 0 else R))
                    for l in range(L)]
            w_hidden = [rng.uniform(-1, 1, (R, R)) for _ in range(L)]
            w_out = rng.uniform(-1, 1, (C, R))
        try:
            return RacParams(w_in=w_in, w_hidden=w_hidden, w_out=w_out)
        except ParameterError:
            continue
    raise ParameterError("could not draw a non-singular hidden matrix")


# ---------------------------------------------------------------------------
# The explicit depth-2 assignment attaining the deep lower bound.

@dataclass(frozen=True)
class AppendixBAssignment:
    """Depth-2 network whose grid matricization has exact rank
    multiset(min{M, R}, T/2).

    The first-layer input matrix Z has Z[i, j] = z^(Omega^i) on the diagonal
    (i = j <= M), 1 elsewhere in rows i <= M, and 0 in rows i > M; both
    hidden matrices are the identity, the second-layer input matrix has a
    single row of ones, the output row picks the first coordinate, and the
    initial states are all-ones.  Requires Omega > (T/2)^2.
    """

    M: int
    R: int
    T: int
    z: int = 2
    omega: int = None

    def __post_init__(self):
        if self.T % 2 != 0 or self.T < 2:
            raise InvalidInputError(f"T must be even and >= 2, got {self.T}")
        if self.omega is None:
            object.__setattr__(self, "omega", (self.T // 2) ** 2 + 1)
        if self.omega <= (self.T // 2) ** 2:
            raise InvalidInputError(
                f"omega must exceed (T/2)^2 = {(self.T // 2) ** 2}")
        if self.z == 0:
            raise InvalidInputError("z must be nonzero")

    @property
    def Z(self):
        return exact_array([[self.z ** self.omega ** (i + 1) if i == j
                             else int(i < self.M) for j in range(self.M)]
                            for i in range(self.R)])

    @property
    def bound(self):
        return multiset_coefficient(min(self.M, self.R), self.T // 2)

    def params(self) -> RacParams:
        first = np.eye(1, self.R, dtype=int)  # the row (1, 0, ..., 0)
        ones = np.ones(self.R, dtype=int)
        eye, w_in2, w_out, h0 = map(exact_array, (
            np.eye(self.R, dtype=int), first.T * ones, first, ones))
        return RacParams(w_in=[self.Z, w_in2], w_hidden=[eye, eye],
                         w_out=w_out, h0=[h0, h0])


# ---------------------------------------------------------------------------
# Theorem checks.

def verify_shallow_rank_law(M, R, T, trials, field=EXACT, seed=0,
                            rel_tol=DEFAULT_REL_TOL) -> Report:
    """Single-layer law: rank of the matricized weights tensor equals
    min{R, M^(T/2)} almost everywhere, and never exceeds it."""
    if T % 2 != 0:
        raise InvalidInputError(f"T must be even, got {T}")
    expected = min(R, M ** (T // 2))
    rep = Report("shallow", threshold=DEFAULT_THRESHOLD)
    for trial in range(trials):
        rng = trial_rng(seed, M, R, T, 1, trial)
        p = draw_params(rng, M, R, L=1, field=field)
        observed = start_end_rank(build_weights_tensor(p, T=T).tensor,
                                  rel_tol).rank
        if observed > expected:
            # unconditional upper bound: a violation is a hard failure
            rep.add(M=M, R=R, T=T, L=1, field=field, seed=f"{seed}.{trial}",
                    observed=str(observed), expected=f"<={expected}",
                    passed=False, required=True)
            continue
        rep.add(M=M, R=R, T=T, L=1, field=field, seed=f"{seed}.{trial}",
                observed=str(observed), expected=str(expected),
                passed=observed == expected, required=False)
    return rep


def verify_deep_lower_bound(M, R, T, trials=30, seed=0,
                            rel_tol=DEFAULT_REL_TOL) -> Report:
    """Depth-2 lower bound multiset(min{M,R}, T/2): attained exactly by the
    explicit assignment, and met or exceeded by random float draws."""
    asg = AppendixBAssignment(M=M, R=R, T=T)
    rep = Report("deep", threshold=DEFAULT_THRESHOLD)
    observed = start_end_rank(build_grid_tensor(asg.params(), T=T).tensor).rank
    rep.add(M=M, R=R, T=T, L=2, field=EXACT, seed="-",
            observed=str(observed), expected=str(asg.bound),
            passed=observed == asg.bound, required=True)
    for trial in range(trials):
        rng = trial_rng(seed, M, R, T, 2, trial)
        p = draw_params(rng, M, R, L=2, field=FLOAT)
        r = start_end_rank(build_grid_tensor(p, T=T).tensor, rel_tol).rank
        rep.add(M=M, R=R, T=T, L=2, field=FLOAT, seed=f"{seed}.{trial}",
                observed=str(r), expected=f">={asg.bound}",
                passed=r >= asg.bound, required=False)
    return rep


def check_claim1_equality(M, R, T, trials, seed=0) -> Report:
    """With identity templates the grid tensor's matricization rank equals
    the weights tensor's, draw for draw."""
    rep = Report("claim1")
    for trial in range(trials):
        rng = trial_rng(seed, M, R, T, 1, trial)
        p = draw_params(rng, M, R, L=1, field=EXACT)
        rg = start_end_rank(build_grid_tensor(p, T=T).tensor).rank
        rw = start_end_rank(build_weights_tensor(p, T=T).tensor).rank
        rep.add(M=M, R=R, T=T, L=1, field=EXACT, seed=f"{seed}.{trial}",
                observed=str(rg), expected=str(rw), passed=rg == rw)
    return rep


def check_conjecture_bound(M, R, T, L, trials=10, seed=0,
                           rel_tol=DEFAULT_REL_TOL) -> Report:
    """Reports observed grid rank against the conjectured depth-L bound
    min{multiset(min{M,R}, multiset(T/2, L-1)), M^(T/2)}.

    The bound is CONJECTURE: rows assert only the dimension cap M^(T/2);
    the comparison is recorded in the expected column for inspection.
    """
    inner = multiset_coefficient(T // 2, L - 1)
    bound = min(multiset_coefficient(min(M, R), inner), M ** (T // 2))
    cap = M ** (T // 2)
    rep = Report("conjecture")
    for trial in range(trials):
        rng = trial_rng(seed, M, R, T, L, trial)
        p = draw_params(rng, M, R, L=L, field=FLOAT)
        r = start_end_rank(build_grid_tensor(p, T=T).tensor, rel_tol).rank
        rep.add(M=M, R=R, T=T, L=L, field=FLOAT, seed=f"{seed}.{trial}",
                observed=str(r), expected=f"conjectured>={bound}",
                passed=r <= cap)
    return rep


# ---------------------------------------------------------------------------
# Lemma suites.

def bucket_states(Rbar: int, k: int):
    """All length-Rbar non-negative integer vectors summing to k."""
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


def check_decomposition_identity(M, Rbar, T, seed=0) -> Report:
    """Product-of-partial-sums identity: for any Rbar x M matrix Z and every
    index word d of length T,

        prod_{t=T/2+1..T} sum_r prod_{j<=t} Z[r, d_j]

    equals the double sum over bucket states p (level T/2) and trajectories
    of prod_r prod_{j<=T/2} Z[r,d_j]^p_r * prod_{j>T/2} Z[r,d_j]^chain_j[r],
    where chain_j is the trajectory state in force at step j."""
    rng = trial_rng(seed, M, Rbar, T, 1, 0)
    Z = exact_array(rng.integers(-3, 4, (Rbar, M)))
    half = T // 2
    mismatches = 0
    for d in itertools.product(range(M), repeat=T):
        lhs = Fraction(1)
        for t in range(half + 1, T + 1):
            s = Fraction(0)
            for r in range(Rbar):
                pr = Fraction(1)
                for j in range(t):
                    pr *= Z[r, d[j]]
                s += pr
            lhs *= s
        rhs = Fraction(0)
        for p in bucket_states(Rbar, half):
            for traj in bucket_trajectories(p):
                chain = (p,) + traj  # chain[i] is the state at step half+1+i
                term = Fraction(1)
                for r in range(Rbar):
                    for j in range(half):
                        term *= Z[r, d[j]] ** p[r]
                    for j in range(half + 1, T + 1):
                        term *= Z[r, d[j - 1]] ** chain[j - half - 1][r]
                rhs += term
        mismatches += lhs != rhs
    rep = Report("decomposition")
    rep.add(M=M, R=Rbar, T=T, L=1, field=EXACT, seed=f"{seed}.0",
            observed=f"{mismatches} mismatches",
            expected="0 mismatches", passed=mismatches == 0)
    return rep


def check_rearrangement_lemma(N, Rbar, trials, seed=0) -> Report:
    """Vector rearrangement inequality: for pairwise-distinct non-negative
    vectors v_1..v_N and any permutation s != id,
    sum_i <v_i, v_{s(i)}> < sum_i ||v_i||^2, strictly."""
    if N > 6:
        raise InvalidInputError("N must be <= 6 (factorial enumeration)")
    rep = Report("rearrangement")
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
        rep.add(M=Rbar, R=Rbar, T=0, L=1, field=EXACT, seed=f"{seed}.{trial}",
                observed=f"{violations} non-strict",
                expected="0 non-strict", passed=violations == 0)
    return rep


def check_bucket_lemma(Rbar, T, omega=None) -> Report:
    """Optimal-emptying lemma: for every non-decreasing color word d of
    length T/2 the reward max over trajectories of
    sum_j omega^(d_j) * state_j[d_j] is maximized over starting states p,
    strictly and uniquely, at p-hat with p-hat_r = multiplicity of r in d."""
    if T % 2 != 0:
        raise InvalidInputError(f"T must be even, got {T}")
    k = T // 2
    if Rbar > 3 or k > 4:
        raise InvalidInputError("exhaustive sweep needs Rbar <= 3, T/2 <= 4")
    if omega is None:
        omega = k ** 2 + 1
    if omega <= k ** 2:
        raise InvalidInputError(f"omega must exceed (T/2)^2 = {k ** 2}")

    def reward(d, p):
        best = None

        def rec(state, i, acc):
            nonlocal best
            acc = acc + omega ** d[i] * state[d[i] - 1]
            if i == len(d) - 1:
                if best is None or acc > best:
                    best = acc
                return
            for r in range(len(state)):
                if state[r] > 0:
                    q = list(state)
                    q[r] -= 1
                    rec(tuple(q), i + 1, acc)

        rec(p, 0, 0)
        return best

    rep = Report("bucket")
    for d in itertools.combinations_with_replacement(range(1, Rbar + 1), k):
        phat = tuple(sum(1 for x in d if x == r) for r in range(1, Rbar + 1))
        vals = {p: reward(d, p) for p in bucket_states(Rbar, k)}
        top = max(vals.values())
        argmax = sorted(p for p, v in vals.items() if v == top)
        ok = argmax == [phat]
        rep.add(M=Rbar, R=Rbar, T=T, L=1, field=EXACT,
                seed="d=" + "".join(map(str, d)),
                observed=f"argmax={argmax}", expected=f"argmax=[{phat}]",
                passed=ok)
    return rep


def check_hadamard_power_bound(trials, seed=0) -> Report:
    """Entrywise p-th powers obey rank(m^(op)) <= multiset(rank(m), p), on
    random 4 x 4 integer matrices and powers p in 1..3."""
    n = 4
    rep = Report("hadamard")
    for trial in range(trials):
        rng = trial_rng(seed, n, n, 0, 1, trial)
        m = DenseTensor(rng.integers(-4, 5, (n, n)), EXACT)
        base = rank_exact(m).rank
        p = int(rng.integers(1, 4))
        powered = rank_exact(hadamard_power(m, p)).rank
        bound = multiset_coefficient(base, p)
        rep.add(M=n, R=n, T=0, L=1, field=EXACT, seed=f"{seed}.{trial}",
                observed=f"rank^{p}={powered}", expected=f"<={bound}",
                passed=powered <= bound)
    return rep


def verify_min_cut(M, R, T, trials=30, seed=0) -> Report:
    """Min-cut certificate: on the single-layer chain the minimal
    multiplicative cut between start and end legs equals min{R, M^(T/2)}
    structurally, and equals the exact matricization rank for almost every
    draw."""
    from .tn import build_mps, min_cut
    if T % 2 != 0:
        raise InvalidInputError(f"T must be even, got {T}")
    structural = min(R, M ** (T // 2))
    rep = Report("mincut", threshold=DEFAULT_THRESHOLD)
    for trial in range(trials):
        rng = trial_rng(seed, M, R, T, 1, trial)
        p = draw_params(rng, M, R, L=1, field=EXACT)
        cut, _ = min_cut(build_mps(p, T))
        if cut != structural:
            rep.add(M=M, R=R, T=T, L=1, field=EXACT, seed=f"{seed}.{trial}",
                    observed=f"cut={cut}", expected=f"cut={structural}",
                    passed=False, required=True)
            continue
        rank = start_end_rank(build_weights_tensor(p, T=T).tensor).rank
        rep.add(M=M, R=R, T=T, L=1, field=EXACT, seed=f"{seed}.{trial}",
                observed=f"rank={rank}", expected=f"rank={cut}",
                passed=rank == cut, required=False)
    return rep


def check_no_cloning(P) -> Report:
    """Super-diagonal duplication works on basis vectors only (P >= 2)."""
    from .tn import no_clone_counterexample
    r = no_clone_counterexample(P)
    rep = Report("noclone")
    expect_ones = P == 1
    rep.add(M=P, R=P, T=0, L=1, field=EXACT, seed="-",
            observed=f"basis={r.basis_cloned} ones={r.ones_cloned}",
            expected=f"basis=True ones={expect_ones}",
            passed=r.basis_cloned and r.ones_cloned == expect_ones)
    return rep
