"""Acceptance gate: one test per headline criterion, one printed line each.

The sampled criteria (1, 2, 4) use a fixed recorded seed; every draw is
reproducible from it, so the gate is deterministic.
"""

from racsep import (FLOAT, RAC_PRODUCT, Cell, TemplateEncoder,
                    attach_inputs, build_deep_tn, build_mps,
                    build_weights_tensor, contract, count_basic_units,
                    check_bucket_lemma, check_decomposition_identity,
                    check_hadamard_power_bound, check_rearrangement_lemma,
                    draw_params, forward_deep, min_cut, multiset_coefficient,
                    no_clone_counterexample, trial_rng,
                    verify_deep_lower_bound, verify_min_cut,
                    verify_shallow_rank_law)
from racsep.cli import main
from racsep.verification import check_claim1_equality

SEED = 7


def report(capsys, ok, label):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def test_criterion_1_shallow_rank_law(capsys):
    ok = True
    for M in (2, 3):
        for R in (1, 2, 3, 4):
            for T in (4, 6):
                rep = verify_shallow_rank_law(Cell(M, R, T), trials=50,
                                              seed=SEED)
                ok &= rep.passed
                # the cap is unconditional: no draw may exceed it
                cap = min(R, M ** (T // 2))
                ok &= all(int(r.observed) <= cap for r in rep.rows)
    report(capsys, ok, "criterion 1: shallow rank == min{R, M^(T/2)} "
                       "on >=95% of 50 draws per cell, never above")


def test_criterion_2_deep_lower_bound(capsys):
    ok = True
    for (M, R, T) in [(2, 2, 4), (2, 3, 6), (3, 2, 6), (3, 3, 4)]:
        rep = verify_deep_lower_bound(Cell(M, R, T, 2), trials=30, seed=SEED)
        ok &= rep.passed
        exact_row = next(r for r in rep.rows if r.required)
        ok &= exact_row.observed == str(multiset_coefficient(min(M, R), T // 2))
    report(capsys, ok, "criterion 2: assignment rank == multiset(min{M,R},T/2) "
                       "exactly; float draws >= bound on >=95%")


def test_criterion_3_claim1_equality(capsys):
    ok = True
    for (M, R) in [(2, 2), (3, 2)]:
        rep = check_claim1_equality(Cell(M, R, 4), trials=20, seed=SEED)
        ok &= rep.passed and all(r.passed for r in rep.rows)
    report(capsys, ok, "criterion 3: grid rank == weights rank "
                       "(identity templates), 20/20 draws at (2,2,4),(3,2,4)")


def test_criterion_4_min_cut_certificate(capsys):
    ok = True
    for M in (2, 3):
        for R in (2, 3):
            for T in (4, 6):
                rep = verify_min_cut(Cell(M, R, T), trials=30, seed=SEED)
                ok &= rep.passed
                # structural value on every draw (it is weight-independent)
                structural = min(R, M ** (T // 2))
                p = draw_params(trial_rng(SEED, M, R, T, 1, 0), M, R, L=1)
                ok &= min_cut(build_mps(p, T))[0] == structural
    report(capsys, ok, "criterion 4: min-cut == min{R, M^(T/2)} structurally "
                       "and == exact rank on >=95% of 30 draws per cell")


def test_criterion_5_forward_contraction_equivalence(capsys):
    ok = True
    for trial in range(20):
        p = draw_params(trial_rng(SEED, 2, 2, 4, 1, trial), 2, 2, L=1)
        w = build_weights_tensor(p, T=4).tensor
        ok &= contract(build_mps(p, 4)).equals(w)
    enc_e = TemplateEncoder.identity(2)
    enc_f = TemplateEncoder.identity(2, FLOAT)
    for trial in range(20):
        pe = draw_params(trial_rng(SEED, 2, 2, 4, 2, trial), 2, 2, L=2)
        pf = draw_params(trial_rng(SEED + 1, 2, 2, 4, 2, trial), 2, 2, L=2,
                         field=FLOAT)
        ge, gf = build_deep_tn(pe, 4), build_deep_tn(pf, 4)
        seq = tuple(int(s) for s in
                    trial_rng(SEED + 2, 2, 2, 4, 2, trial).integers(1, 3, 4))
        ve = contract(attach_inputs(ge, enc_e, seq)).entries[0]
        ok &= ve == forward_deep(pe, RAC_PRODUCT, enc_e, seq)[0]
        vf = contract(attach_inputs(gf, enc_f, seq)).entries[0]
        rf = forward_deep(pf, RAC_PRODUCT, enc_f, seq)[0]
        ok &= abs(vf - rf) <= 1e-10 * max(abs(rf), 1e-300)
    report(capsys, ok, "criterion 5: MPS contraction == weights tensor (exact);"
                       " deep-graph contraction == forward (exact & <=1e-10)")


def test_criterion_6_basic_unit_count(capsys):
    ok = count_basic_units(Cell(2, 2, 6, 3)).enumerated == 6
    for L in (1, 2, 3, 4):
        for T in (2, 4, 6, 8):
            r = count_basic_units(Cell(2, 2, T, L))
            ok &= r.match and r.closed_form == multiset_coefficient(T // 2, L - 1)
    report(capsys, ok, "criterion 6: basic-unit enumeration == multiset(T/2,L-1)"
                       " for L<=4, T in {2,4,6,8}; worked value (3,6)->6")


def test_criterion_7_lemma_suites(capsys):
    ok = check_rearrangement_lemma(5, 4, trials=100, seed=SEED).passed
    for Rbar in (1, 2, 3):
        for T in (2, 4, 6, 8):
            ok &= check_bucket_lemma(Rbar, T).passed
    for (M, Rb, T) in [(2, 2, 4), (2, 3, 4), (3, 2, 4)]:
        ok &= check_decomposition_identity(Cell(M, Rb, T), seed=SEED).passed
    ok &= check_hadamard_power_bound(trials=50, seed=SEED).passed
    report(capsys, ok, "criterion 7: rearrangement strict (100 sets), bucket "
                       "maximizer unique, decomposition exact, Hadamard bound")


def test_criterion_8_no_cloning(capsys):
    ok = True
    for P in (2, 3, 4):
        r = no_clone_counterexample(P)
        ok &= r.basis_cloned and not r.ones_cloned
    report(capsys, ok, "criterion 8: delta clones basis vectors, fails "
                       "all-ones, P in {2,3,4}")


def test_criterion_9_determinism(capsys, tmp_path):
    args = ["verify", "deep", "--M", "2", "--R", "2", "--T", "4",
            "--trials", "10", "--seed", str(SEED)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    capsys.readouterr()
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    report(capsys, ok, "criterion 9: identical seeds give byte-identical CSV")
