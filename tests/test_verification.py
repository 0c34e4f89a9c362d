"""Verification suites: rank laws, explicit assignment, lemma checks."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from racsep import (EXACT, FLOAT, Cell, DenseTensor, InvalidInputError,
                    ParameterError, RacParams, RankReport,
                    ResourceBudgetError, ShapeError,
                    appendix_b_params, build_grid_tensor,
                    check_bucket_lemma, check_claim1_equality,
                    check_conjecture_bound, check_decomposition_identity,
                    check_hadamard_power_bound, check_no_cloning,
                    check_rearrangement_lemma, conjectured_bound,
                    draw_params, draw_trials, exact_array, matricize,
                    multiset_coefficient, rank_exact, rows_to_csv,
                    separation_rank, suffix_bound, TemplateEncoder,
                    trial_rng, verify_deep_lower_bound, verify_min_cut,
                    verify_shallow_rank_law)
from racsep import builders, verification
from racsep.cli import main
from racsep.verification import Report, bucket_states, bucket_trajectories


def test_trial_rng_deterministic_and_independent():
    a = trial_rng(7, 2, 3, 4, 1, 5).integers(0, 1000, 8)
    b = trial_rng(7, 2, 3, 4, 1, 5).integers(0, 1000, 8)
    c = trial_rng(7, 2, 3, 4, 1, 6).integers(0, 1000, 8)
    assert np.all(a == b)
    assert not np.all(a == c)


@pytest.mark.parametrize("a,b", [((2, 150, 4, 1), (3, 50, 4, 1)),
                                 ((2, 2, 4, 21), (2, 2, 6, 1))])
def test_trial_rng_gives_every_valid_cell_its_own_stream(a, b):
    # the packed key ((M*100+R)*100+T)*10+L gave each pair one stream
    for cell in (a, b):
        Cell(*cell)
    draw = [trial_rng(7, *cell, 0).integers(0, 2 ** 62, 4) for cell in (a, b)]
    assert not np.array_equal(*draw)


@pytest.mark.parametrize("M,R,T,L", [(2, 2, 4, 1), (3, 99, 98, 9),
                                     (500, 4, 6, 2), (2, 2, 0, 1)])
def test_trial_rng_keeps_the_packed_key_inside_its_range(M, R, T, L):
    # every recorded draw (README digests, goldens, benchmark) lies here
    old = ((M * 100 + R) * 100 + T) * 10 + L
    want = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(old, 3)))
    assert np.array_equal(trial_rng(7, M, R, T, L, 3).integers(0, 2 ** 62, 4),
                          want.integers(0, 2 ** 62, 4))


def test_trial_rng_refuses_a_negative_seed():
    # numpy's SeedSequence used to raise a bare ValueError
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        trial_rng(-1, 2, 2, 4, 1, 0)


@pytest.mark.parametrize("args,message", [
    ((0, 2, 2, 4, 1, -1), "trial must be >= 0"),
    ((0, 2, 2, 4, 1, 0.5), "trial must be an integer"),
    ((0, -2, 2, 4, 1, 0), "M must be >= 0"),
    ((0, 2, 2.0, 4, 1, 0), "R must be an integer"),
    ((0, 2, 2, "4", 1, 0), "T must be an integer"),
    ((0, 2, 2, 4, True, 0), "L must be an integer")])
def test_trial_rng_refuses_what_is_not_a_count(args, message):
    # a negative trial used to raise numpy's bare ValueError, and a trial of
    # 0.5 a bare TypeError
    with pytest.raises(InvalidInputError, match=message):
        trial_rng(*args)


@pytest.mark.parametrize("suite,L", [
    (lambda c: verify_shallow_rank_law(c, 1), 2),
    (lambda c: check_claim1_equality(c, 1), 2),
    (lambda c: verify_min_cut(c, 1), 3),
    (lambda c: check_decomposition_identity(c), 2),
    (lambda c: verify_deep_lower_bound(c, 1), 1),
    (lambda c: verify_deep_lower_bound(c, 1), 3),
], ids=["shallow", "claim1", "mincut", "decomposition", "deep-1", "deep-3"])
def test_depth_fixed_suites_refuse_a_cell_of_another_depth(suite, L):
    with pytest.raises(ParameterError, match="stated at depth"):
        suite(Cell(2, 2, 4, L))


def test_draw_params_ranges():
    p = draw_params(trial_rng(0, 3, 2, 4, 1, 0), 3, 2, L=1)
    assert p.M == 3 and p.R == 2 and p.L == 1 and p.field == EXACT
    assert all(Fraction(-9) <= v <= Fraction(9) for v in p.w_in[0].reshape(-1))
    q = draw_params(trial_rng(0, 2, 2, 4, 2, 1), 2, 2, L=2, field=FLOAT)
    assert q.field == FLOAT and q.L == 2
    assert np.all(np.abs(q.w_out) <= 1)


@pytest.mark.parametrize("M,R", [(2, 0), (0, 2)])
@pytest.mark.parametrize("field", [EXACT, FLOAT])
def test_draw_params_empty_size_reason(M, R, field):
    # an empty size is reported as such, not as a failed redraw
    with pytest.raises(ParameterError, match="must be >= 1"):
        draw_params(trial_rng(0, M, R, 4, 1, 0), M, R, field=field)


def test_appendix_b_assignment_structure():
    p = appendix_b_params(M=2, R=3, T=4)
    Z = p.w_in[0]  # Omega = (T/2)^2 + 1 = 5
    assert Z[0, 0] == Fraction(2) ** 5 and Z[1, 1] == Fraction(2) ** 25
    assert Z[0, 1] == Fraction(1) and Z[1, 0] == Fraction(1)
    assert Z[2, 0] == Fraction(0) and Z[2, 1] == Fraction(0)  # row > M
    assert p.L == 2
    assert np.all(p.w_hidden[0] == p.w_hidden[1])
    assert all(p.w_hidden[0][i, j] == Fraction(int(i == j))
               for i in range(3) for j in range(3))
    assert np.all(p.w_in[1][0] == Fraction(1)) and p.w_in[1][1, 0] == 0
    assert p.w_out[0, 0] == 1 and p.w_out[0, 1] == 0
    assert all(h == 1 for h in p.h0[0]) and all(h == 1 for h in p.h0[1])


def test_appendix_b_validation():
    with pytest.raises(ShapeError):
        appendix_b_params(M=2, R=2, T=3)


@pytest.mark.parametrize("M,R,T,expected", [
    (2, 2, 4, 3),   # multiset(2, 2)
    (3, 3, 4, 6),   # multiset(3, 2)
    (2, 3, 4, 3),   # multiset(min{2,3}, 2)
    (3, 2, 8, 5),   # multiset(2, 4)
    (2, 2, 8, 5),   # multiset(2, 4)
    (3, 3, 6, 10),  # multiset(3, 3)
])
def test_appendix_b_grid_rank(M, R, T, expected):
    # the materialized grid and the frontier walk of separation_rank agree
    p = appendix_b_params(M=M, R=R, T=T)
    m = matricize(build_grid_tensor(p, T=T))
    assert rank_exact(m).rank == expected
    assert separation_rank(p, T).rank == expected


def test_verify_shallow_rank_law():
    rep = verify_shallow_rank_law(Cell(2, 2, 4), trials=10, seed=1)
    assert rep.passed and rep.fraction == 1.0
    # R beyond the M^(T/2) cap
    rep = verify_shallow_rank_law(Cell(2, 16, 4), trials=3, seed=1)
    assert rep.passed
    assert all(r.observed == "4" for r in rep.rows)
    # R=1 always rank 1
    rep = verify_shallow_rank_law(Cell(2, 1, 4), trials=5, seed=1)
    assert rep.passed and all(r.observed == "1" for r in rep.rows)
    with pytest.raises(ShapeError):
        verify_shallow_rank_law(Cell(2, 2, 3), trials=1)


def test_verify_shallow_float_field():
    rep = verify_shallow_rank_law(Cell(2, 2, 4), trials=5, seed=2, field=FLOAT)
    assert rep.passed


def test_verify_shallow_exact_never_builds_the_weights_tensor(monkeypatch):
    # exact and float ranks alike walk the frontier from the mid-sequence
    # states and build neither the weights tensor nor the grid
    def refuse(*args, **kwargs):
        raise AssertionError("build_weights_tensor called")

    grids = []

    def spy(*args, **kwargs):
        grids.append(args)
        return build_grid_tensor(*args, **kwargs)

    monkeypatch.setattr(builders, "build_weights_tensor", refuse)
    monkeypatch.setattr(builders, "build_grid_tensor", spy)
    rep = verify_shallow_rank_law(Cell(3, 2, 6), trials=5, seed=7,
                                  field=EXACT)
    assert rep.passed and [r.observed for r in rep.rows] == ["2"] * 5
    assert grids == []
    rep = verify_shallow_rank_law(Cell(3, 2, 6), trials=2, seed=7,
                                  field=FLOAT)
    assert rep.passed and grids == []


def test_verify_deep_lower_bound():
    rep = verify_deep_lower_bound(Cell(2, 2, 4, 2), trials=5, seed=0)
    assert rep.passed
    exact_rows = [r for r in rep.rows if r.required]
    assert len(exact_rows) == 1 and exact_rows[0].observed == "3"
    # R=1: bound multiset(1, 2) = 1
    rep = verify_deep_lower_bound(Cell(2, 1, 4, 2), trials=3, seed=0)
    assert rep.passed and rep.rows[0].expected == "1"


def test_claim1_equality():
    for (M, R) in [(2, 2), (3, 2)]:
        rep = check_claim1_equality(Cell(M, R, 4), trials=5, seed=3)
        assert rep.passed and all(r.passed for r in rep.rows)


@pytest.mark.parametrize("M", [2, 3])
def test_claim1_builds_its_grid_under_unimodular_non_identity_templates(
        M, monkeypatch):
    # each draw walks the frontier twice: under the identity (the weights
    # tensor) and under non-identity templates; with identity templates
    # both times the check would compare one walk with itself
    seen = []
    frontier = builders._Frontier

    def spy(p, F, c):
        seen.append(F)
        return frontier(p, F, c)

    monkeypatch.setattr(builders, "_Frontier", spy)
    assert check_claim1_equality(Cell(M, 2, 4), trials=2, seed=3).passed
    assert len(seen) == 4
    eye = np.eye(M, dtype=int)
    assert [(F == eye).all() for F in seen] == [False, True] * 2
    for F in seen[::2]:
        assert F.dtype == object and F.shape == (M, M)
        # integer and triangular with unit diagonal, so det F = 1
        assert all(type(x) is int for x in F.reshape(-1))
        assert (np.triu(F, 1) == 0).all() and (np.diag(F) == 1).all()


def test_conjectured_bound():
    assert conjectured_bound(Cell(2, 2, 4, 3)) == 4  # capped at M^(T/2)
    assert conjectured_bound(Cell(3, 3, 6, 2)) == 10  # multiset(3, 3)
    # the shallow min{R, M^(T/2)}
    assert conjectured_bound(Cell(3, 2, 6, 1)) == 2


def test_suffix_bound():
    # prod_j min{M, multiset(R, multiset(j, L-1))}: min{M, R} times 3 = M
    assert suffix_bound(Cell(3, 2, 4, 6)) == 6
    assert suffix_bound(Cell(4, 3, 4, 4)) == 12
    # depth 1: min{M, R}^(T/2); M <= R: M^(T/2) at every depth
    assert suffix_bound(Cell(3, 2, 6, 1)) == 8
    assert suffix_bound(Cell(2, 3, 6, 3)) == 8


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cell", [Cell(3, 2, 4, 6), Cell(4, 3, 4, 4)],
                         ids=str)
def test_wide_exact_draws_attain_the_suffix_bound_below_the_conjecture(
        cell, seed):
    # with R < M the proven suffix bound sits below the coded conjecture,
    # and wide integer weights (neutral h0) attain it
    M, R, T, L = cell
    rng = np.random.default_rng(seed)

    def wide(*shape):
        return rng.integers(-10**6, 10**6 + 1, shape).astype(object)

    p = RacParams(w_in=[wide(R, M if l == 0 else R) for l in range(L)],
                  w_hidden=[wide(R, R) for _ in range(L)], w_out=wide(1, R))
    assert (separation_rank(p, T).rank == suffix_bound(cell)
            < conjectured_bound(cell))


@settings(deadline=None, max_examples=100,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(st.data())
def test_rank_never_exceeds_the_suffix_bound(data):
    # any depth, any initial state, any non-singular templates; hidden
    # matrices may be singular, as h0 is explicit
    L = data.draw(st.integers(1, 4))
    M = data.draw(st.integers(1, 3))
    R = data.draw(st.integers(1, 3))
    T = data.draw(st.sampled_from([2, 4, 6]))

    def ints(*shape):
        n = math.prod(shape)
        return exact_array(data.draw(st.lists(
            st.integers(-3, 3), min_size=n, max_size=n)), shape=shape)

    F = ints(M, M)
    assume(rank_exact(F).rank == M and (F != np.eye(M, dtype=int)).any())
    p = RacParams(w_in=[ints(R, M if l == 0 else R) for l in range(L)],
                  w_hidden=[ints(R, R) for _ in range(L)], w_out=ints(1, R),
                  h0=[ints(R) for _ in range(L)])
    rank = separation_rank(p, T, enc=TemplateEncoder(F)).rank
    assert rank <= suffix_bound(Cell(M, R, T, L))


def test_conjecture_report_only():
    rep = check_conjecture_bound(Cell(2, 2, 4, 3), trials=3, seed=0)
    # the cap M^(T/2) is asserted; the conjectured bound is only reported
    assert rep.passed
    assert all("conjectured>=4" == r.expected for r in rep.rows)
    assert all(int(r.observed) <= 4 for r in rep.rows)


def test_decomposition_identity():
    for (M, Rb, T) in [(2, 2, 4), (2, 3, 4), (3, 2, 4)]:
        rep = check_decomposition_identity(Cell(M, Rb, T), seed=0)
        assert rep.passed, (M, Rb, T)
    for T in (0, 3):  # a false mismatch and an IndexError before
        with pytest.raises(ShapeError):
            check_decomposition_identity(Cell(2, 2, T))


def test_bucket_states_and_trajectories():
    states = list(bucket_states(2, 2))
    assert sorted(states) == [(0, 2), (1, 1), (2, 0)]
    # trajectories from (1,1): two orders of removal
    trajs = sorted(bucket_trajectories((1, 1)))
    assert trajs == [((0, 1),), ((1, 0),)]
    # number of trajectories from (k, 0, ...) is 1
    assert len(list(bucket_trajectories((3, 0)))) == 1


@pytest.mark.parametrize("call", [
    lambda: multiset_coefficient(2.5, 1), lambda: multiset_coefficient(2, 1.5),
    lambda: multiset_coefficient("2", 1), lambda: multiset_coefficient(True, 2),
    lambda: multiset_coefficient(-1, 2), lambda: list(bucket_states(0, 2)),
    lambda: list(bucket_states(2, -1)), lambda: list(bucket_states(1.5, 2))],
    ids=["n-float", "k-float", "n-str", "n-bool", "n-negative", "Rbar-0",
         "k-negative", "Rbar-float"])
def test_counting_helpers_refuse_bad_counts_with_a_typed_error(call):
    # a bare TypeError, a bool counted as 1, a RecursionError and a silently
    # empty sweep before
    with pytest.raises(InvalidInputError):
        call()


def test_bucket_lemma():
    rep = check_bucket_lemma(2, 4)  # worked example size: Omega = 5
    assert rep.passed
    rep = check_bucket_lemma(3, 6)
    assert rep.passed
    with pytest.raises(ShapeError):
        check_bucket_lemma(2, 0)  # an IndexError before


def test_bucket_lemma_worked_example():
    # d=(1,2), Omega=5: optimum 5 + 25 = 30 uniquely at p-hat=(1,1)
    rep = check_bucket_lemma(2, 4)
    row = next(r for r in rep.rows if r.seed == "d=12")
    assert "(1, 1)" in row.expected and row.passed


def test_rearrangement_lemma():
    rep = check_rearrangement_lemma(3, 3, trials=20, seed=0)
    assert rep.passed
    with pytest.raises(InvalidInputError):
        check_rearrangement_lemma(7, 2, trials=1)


@pytest.mark.parametrize("N,Rbar", [(3, 0), (0, 3), (3, -1)])
def test_rearrangement_lemma_refuses_an_empty_size(N, Rbar):
    # (3, 0) used to redraw forever, waiting for 3 distinct empty vectors
    with pytest.raises(InvalidInputError, match="N and Rbar"):
        check_rearrangement_lemma(N, Rbar, trials=1)


@pytest.mark.parametrize("N,Rbar,trials", [
    (2.5, 2, 1), (True, 2, 1), (3, True, 1), (3, 2.0, 1),
    (3, 2, 1.5), (3, 2, True), (3, 2, -1)])
def test_rearrangement_lemma_refuses_a_size_or_count_that_is_not_an_integer(
        N, Rbar, trials, monkeypatch):
    # each used to raise a bare TypeError, or (3, 2, -1) to return an empty
    # report that fails; the refusal comes before any draw
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(verification, "trial_rng", no_draw)
    with pytest.raises(InvalidInputError):
        check_rearrangement_lemma(N, Rbar, trials)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: trial_rng(1.5, 2, 2, 4, 1, 0), id="trial_rng-1.5"),
    pytest.param(lambda: trial_rng(True, 2, 2, 4, 1, 0), id="trial_rng-True"),
    *(pytest.param(lambda bad=bad: draw_trials(7, Cell(2, 2, 4), bad, EXACT),
                   id=f"draw_trials-{bad}") for bad in (2.5, True, -1)),
    *(pytest.param(lambda bad=bad: check_hadamard_power_bound(bad),
                   id=f"hadamard-{bad}") for bad in (2.5, True, -1)),
    *(pytest.param(lambda bad=bad: check_no_cloning(bad),
                   id=f"noclone-{bad}") for bad in (2.5, True))])
def test_entry_points_refuse_a_seed_count_or_size_that_is_not_an_integer(call):
    # 1.5, 2.5 and True used to raise bare TypeErrors (or label rows
    # "True.0"), and -1 trials gave an empty report that fails
    with pytest.raises(InvalidInputError):
        call()


def _params_with(entry):
    one = np.ones((1, 1), dtype=object)
    return RacParams(w_in=[np.array([[entry]], dtype=object)],
                     w_hidden=[one], w_out=one)


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: draw_params(trial_rng(0, 2, 2, 4, 1, 0), 2, 2,
                                     field="real"),
                 InvalidInputError, "'real'", id="draw_params-real"),
    # refused when called, not when first iterated
    pytest.param(lambda: draw_trials(7, Cell(2, 2, 4), 1, "real"),
                 InvalidInputError, "'real'", id="draw_trials-real"),
    *(pytest.param(lambda bad=bad: exact_array([[1, bad]]), InvalidInputError,
                   repr(bad), id=f"exact_array-{bad!r}")
      for bad in (float("nan"), float("inf"), None, "x", "1/0")),
    pytest.param(lambda: DenseTensor(np.array(["a"]), EXACT),
                 InvalidInputError, "'a'", id="DenseTensor-a"),
    pytest.param(lambda: _params_with("1/0"), ParameterError, "'1/0'",
                 id="RacParams-1/0"),
    pytest.param(lambda: rank_exact([[1, 2], [3]]), ShapeError, "matrix",
                 id="rank_exact-ragged")])
def test_entry_points_refuse_bad_input_with_a_typed_error(call, error, match):
    # a float network drawn silently, and bare ValueError, OverflowError,
    # TypeError and ZeroDivisionError, before
    with pytest.raises(error, match=re.escape(match)):
        call()


def test_zero_trials_draw_nothing():
    assert list(draw_trials(7, Cell(2, 2, 4), 0, EXACT)) == []
    assert check_hadamard_power_bound(0).rows == []
    assert check_rearrangement_lemma(3, 2, 0).rows == []


def test_rearrangement_orthogonal_pair_by_hand():
    # {(1,0),(0,1)} swapped: 0 < 2
    v = [(1, 0), (0, 1)]
    cross = sum(a * b for a, b in zip(v[0], v[1])) * 2
    total = sum(sum(x * x for x in w) for w in v)
    assert cross < total


def test_hadamard_power_bound():
    rep = check_hadamard_power_bound(trials=20, seed=0)
    assert rep.passed


def test_no_cloning_reports():
    assert check_no_cloning(2).passed
    assert check_no_cloning(3).passed
    assert check_no_cloning(1).passed  # degenerate: cloning trivially holds


def test_min_cut_verification():
    rep = verify_min_cut(Cell(2, 2, 4), trials=5, seed=0)
    assert rep.passed


def test_a_report_without_rows_fails():
    assert not Report("shallow", Cell(2, 2, 4)).passed


def _rank_of(rank):
    return lambda p, T, **kwargs: RankReport(rank=rank, method="exact")


def test_a_rank_above_the_shallow_law_is_a_required_failure(monkeypatch,
                                                            capsys):
    monkeypatch.setattr(verification, "separation_rank", _rank_of(3))
    rep = verify_shallow_rank_law(Cell(2, 2, 4), trials=2, seed=7)
    assert [(r.observed, r.expected, r.passed, r.required)
            for r in rep.rows] == [("3", "<=2", False, True)] * 2
    assert not rep.passed
    assert main(["verify", "shallow", "--seed", "7", "--trials", "2"]) == 1
    assert ",3,<=2,false" in capsys.readouterr().out


def test_a_cut_off_the_structural_value_is_a_required_failure(monkeypatch,
                                                              capsys):
    def no_rank(*args, **kwargs):
        raise AssertionError("ranked a draw whose cut is off")

    monkeypatch.setattr(verification, "min_cut", lambda g: (5, ()))
    monkeypatch.setattr(verification, "separation_rank", no_rank)
    rep = verify_min_cut(Cell(2, 2, 4), trials=2, seed=7)
    assert [(r.observed, r.expected, r.passed, r.required)
            for r in rep.rows] == [("cut=5", "cut=2", False, True)] * 2
    assert not rep.passed
    assert main(["verify", "mincut", "--seed", "7", "--trials", "2"]) == 1
    assert ",cut=5,cut=2,false" in capsys.readouterr().out


def test_an_appendix_b_rank_off_the_bound_is_a_required_failure(monkeypatch,
                                                                capsys):
    # every draw meets the bound 3, the Appendix B network's rank misses it
    monkeypatch.setattr(verification, "separation_rank", _rank_of(4))
    rep = verify_deep_lower_bound(Cell(2, 2, 4, 2), trials=2, seed=7)
    row = rep.rows[0]
    assert (row.field, row.observed, row.expected, row.passed,
            row.required) == (EXACT, "4", "3", False, True)
    assert all(r.passed and not r.required for r in rep.rows[1:])
    assert not rep.passed
    assert main(["verify", "deep", "--seed", "7", "--trials", "2"]) == 1
    assert "deep,2,2,4,2,exact,-,4,3,false" in capsys.readouterr().out


def test_csv_format():
    rep = verify_shallow_rank_law(Cell(2, 2, 4), trials=2, seed=0)
    text = rows_to_csv(rep.rows)
    lines = text.splitlines()
    assert lines[0] == "check,M,R,T,L,field,seed,observed,expected,pass"
    assert len(lines) == 3
    assert lines[1].startswith("shallow,2,2,4,1,exact,0.0,")
    # byte-determinism across repeated runs
    rep2 = verify_shallow_rank_law(Cell(2, 2, 4), trials=2, seed=0)
    assert rows_to_csv(rep2.rows) == text


class _ZeroRng:
    """An rng stub whose every integer draw is zero, so every hidden matrix
    it gives is singular; it counts its draws."""

    def __init__(self):
        self.draws = 0

    def integers(self, low, high, shape):
        self.draws += 1
        return np.zeros(shape, dtype=np.int64)


def _draw_from_zeros():
    rng = _ZeroRng()
    try:
        draw_params(rng, 2, 2)
    finally:  # w_in, w_hidden and w_out on each of 100 attempts
        assert rng.draws == 300


@pytest.mark.parametrize("call,error,match", [
    (_draw_from_zeros, ParameterError, "could not draw"),
    (lambda: check_bucket_lemma(4, 4), InvalidInputError, "Rbar <= 3"),
    (lambda: check_bucket_lemma(3, 10), InvalidInputError, "T/2 <= 4"),
], ids=["draw-gives-up", "bucket-wide", "bucket-long"])
def test_checks_past_their_reach_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_decomposition_identity_counts_its_pairs_against_the_grid_budget(
        monkeypatch):
    # (2,2,4) checks 2^4 words against 2^2 chains: 64 word-chain pairs
    built = []
    for name in ("trial_rng", "bucket_states"):
        def spy(*args, _name=name, _f=getattr(verification, name)):
            built.append(_name)
            return _f(*args)
        monkeypatch.setattr(verification, name, spy)
    monkeypatch.setenv("RACSEP_GRID_BUDGET", "63")
    with pytest.raises(ResourceBudgetError) as ei:
        check_decomposition_identity(Cell(2, 2, 4))
    assert (ei.value.required, ei.value.budget, built) == (64, 63, [])
    monkeypatch.setenv("RACSEP_GRID_BUDGET", "64")
    assert check_decomposition_identity(Cell(2, 2, 4)).passed and built
