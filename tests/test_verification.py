"""Verification suites: rank laws, explicit assignment, lemma checks."""

from fractions import Fraction

import numpy as np
import pytest

from racsep import (AppendixBAssignment, EXACT, FLOAT, Cell, IndexPartition,
                    InvalidInputError, ParameterError, ShapeError,
                    build_grid_tensor,
                    check_bucket_lemma, check_claim1_equality,
                    check_conjecture_bound, check_decomposition_identity,
                    check_hadamard_power_bound, check_no_cloning,
                    check_rearrangement_lemma, conjectured_bound,
                    draw_params, matricize,
                    rank_exact, rows_to_csv, trial_rng,
                    verify_deep_lower_bound, verify_min_cut,
                    verify_shallow_rank_law)
from racsep import builders, verification
from racsep.verification import bucket_states, bucket_trajectories


def test_trial_rng_deterministic_and_independent():
    a = trial_rng(7, 2, 3, 4, 1, 5).integers(0, 1000, 8)
    b = trial_rng(7, 2, 3, 4, 1, 5).integers(0, 1000, 8)
    c = trial_rng(7, 2, 3, 4, 1, 6).integers(0, 1000, 8)
    assert np.all(a == b)
    assert not np.all(a == c)


def test_trial_rng_refuses_a_negative_seed():
    # numpy's SeedSequence used to raise a bare ValueError
    with pytest.raises(InvalidInputError, match="seed must be >= 0"):
        trial_rng(-1, 2, 2, 4, 1, 0)


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
    a = AppendixBAssignment(M=2, R=3, T=4)
    assert a.omega == 5
    Z = a.Z
    assert Z[0, 0] == Fraction(2) ** 5 and Z[1, 1] == Fraction(2) ** 25
    assert Z[0, 1] == Fraction(1) and Z[1, 0] == Fraction(1)
    assert Z[2, 0] == Fraction(0) and Z[2, 1] == Fraction(0)  # row > M
    p = a.params()
    assert p.L == 2
    assert np.all(p.w_hidden[0] == p.w_hidden[1])
    assert all(p.w_hidden[0][i, j] == Fraction(int(i == j))
               for i in range(3) for j in range(3))
    assert np.all(p.w_in[1][0] == Fraction(1)) and p.w_in[1][1, 0] == 0
    assert p.w_out[0, 0] == 1 and p.w_out[0, 1] == 0
    assert all(h == 1 for h in p.h0[0]) and all(h == 1 for h in p.h0[1])


def test_appendix_b_validation():
    with pytest.raises(ShapeError):
        AppendixBAssignment(M=2, R=2, T=3)


@pytest.mark.parametrize("M,R,T,expected", [
    (2, 2, 4, 3),   # multiset(2, 2)
    (3, 3, 4, 6),   # multiset(3, 2)
    (2, 3, 4, 3),   # multiset(min{2,3}, 2)
    (3, 2, 8, 5),   # multiset(2, 4)
    (3, 3, 6, 10),  # multiset(3, 3)
])
def test_appendix_b_grid_rank(M, R, T, expected):
    p = AppendixBAssignment(M=M, R=R, T=T).params()
    grid = build_grid_tensor(p, T=T).tensor
    m = matricize(grid, IndexPartition.start_end(T))
    assert rank_exact(m).rank == expected


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
    # exact ranks come from the mid-sequence states; float ones SVD the
    # identity-template grid, which equals the weights tensor
    def refuse(*args, **kwargs):
        raise AssertionError("build_weights_tensor called")

    grids = []

    def spy(*args, **kwargs):
        grids.append(args)
        return build_grid_tensor(*args, **kwargs)

    monkeypatch.setattr(builders, "build_weights_tensor", refuse)
    monkeypatch.setattr(verification, "build_weights_tensor", refuse)
    monkeypatch.setattr(builders, "build_grid_tensor", spy)
    rep = verify_shallow_rank_law(Cell(3, 2, 6), trials=5, seed=7,
                                  field=EXACT)
    assert rep.passed and [r.observed for r in rep.rows] == ["2"] * 5
    assert grids == []
    rep = verify_shallow_rank_law(Cell(3, 2, 6), trials=2, seed=7,
                                  field=FLOAT)
    assert rep.passed and len(grids) == 2


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
    # with identity templates the grid is the weights tensor itself, and the
    # check would compare one construction with itself
    seen = []

    def spy(p, enc=None, *args, **kwargs):
        seen.append(enc)
        return build_grid_tensor(p, enc, *args, **kwargs)

    monkeypatch.setattr(verification, "build_grid_tensor", spy)
    assert check_claim1_equality(Cell(M, 2, 4), trials=2, seed=3).passed
    assert len(seen) == 2
    for enc in seen:
        F = enc.F
        assert enc.field == EXACT and F.shape == (M, M)
        assert not (F == np.eye(M, dtype=int)).all()
        # integer and triangular with unit diagonal, so det F = 1
        assert all(x.denominator == 1 for x in F.reshape(-1))
        assert (np.triu(F, 1) == 0).all() and (np.diag(F) == 1).all()


def test_conjectured_bound():
    assert conjectured_bound(Cell(2, 2, 4, 3)) == 4  # capped at M^(T/2)
    assert conjectured_bound(Cell(3, 3, 6, 2)) == 10  # multiset(3, 3)
    # the shallow min{R, M^(T/2)}
    assert conjectured_bound(Cell(3, 2, 6, 1)) == 2


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
