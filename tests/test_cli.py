"""Command-line interface: exit codes, CSV determinism, exports."""

import copy
import hashlib
import importlib
import itertools
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from racsep import (Cell, check_conjecture_bound, rows_to_csv,
                    verify_deep_lower_bound)
from racsep import cli, verification
from racsep.cli import main
from racsep.tensor import parse_tensor
from racsep.tn import parse_graph


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_verify_deep_passes(capsys):
    code, out, _ = run_cli(["verify", "deep", "--M", "2", "--R", "2",
                            "--T", "4", "--trials", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,M,R,T,L,field,seed,observed,expected,pass"
    assert "deep,2,2,4,2,exact,-,3,3,true" in lines


def test_verify_shallow_grid(capsys):
    code, out, _ = run_cli(["verify", "shallow", "--M", "2", "--R", "1,2",
                            "--T", "4", "--trials", "20", "--seed", "7"],
                           capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 20


def test_odd_T_usage_error(capsys):
    code, _, err = run_cli(["verify", "shallow", "--T", "3"], capsys)
    assert code == 2
    assert "even" in err


SUITE_NAMES = ["shallow", "deep", "claim1", "conjecture", "mincut", "lemmas"]
ODD_T_COMMANDS = ([["verify", s] for s in SUITE_NAMES] + [["scan"]]
                  + [["export", w, "--out", "unused.txt"]
                     for w in ("weights", "grid", "mps", "deep-tn")])


def test_odd_T_gets_one_error_from_every_command(tmp_path, monkeypatch,
                                                 capsys):
    # every command refuses T = 3 through Cell, with one message
    monkeypatch.chdir(tmp_path)
    errs = set()
    for argv in ODD_T_COMMANDS:
        code, out, err = run_cli(argv + ["--T", "3"], capsys)
        assert (code, out) == (2, ""), argv
        errs.add(err)
    assert errs == {"racsep: a cell needs integers M, R, L >= 1 and an even "
                    "T >= 2, got T = 3\n"}
    assert not (tmp_path / "unused.txt").exists()


def test_odd_T_is_refused_before_any_rank(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("separation_rank called")

    monkeypatch.setattr(verification, "separation_rank", refuse)
    code, out, err = run_cli(["verify", "shallow", "--T", "4,3"], capsys)
    assert (code, out) == (2, "") and "T = 3" in err


@pytest.mark.parametrize("argv", [
    ["verify", "shallow"], ["verify", "lemmas"], ["scan"],
    ["export", "mps", "--out", "unused.txt"],
])
def test_negative_seed_usage_error(argv, tmp_path, monkeypatch, capsys):
    # used to end in numpy's ValueError traceback with exit 1
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert (code, out) == (2, "")
    assert err == "racsep: seed must be >= 0, got -1\n"
    assert not (tmp_path / "unused.txt").exists()


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "-1", "0"])
def test_bad_rel_tol_usage_error(rel_tol, capsys):
    # nan printed rank 0 rows and -1 printed rank 4 against the cap <=2
    code, out, err = run_cli(["verify", "shallow", "--field", "float",
                              "--rel-tol", rel_tol, "--trials", "2"], capsys)
    assert (code, out) == (2, "")
    assert "rel_tol must be finite and > 0" in err


@pytest.mark.parametrize("argv", [
    ["verify", "shallow", "--field", "exact", "--rel-tol", "nan"],
    ["scan", "--rel-tol", "-1"], ["scan", "--rel-tol", "inf"]])
def test_bad_rel_tol_is_refused_where_no_float_rank_is_taken(argv, capsys):
    # exact shallow rows and L = 1 scan rows never reach rank_numeric, so
    # these printed normal CSV with exit 0
    code, out, err = run_cli(argv + ["--trials", "1"] * (argv[0] == "verify"),
                             capsys)
    assert (code, out) == (2, "")
    assert "rel_tol must be finite and > 0" in err


@pytest.mark.parametrize("value", ["abc", "1e3", "-5", ""])
def test_malformed_grid_budget_usage_error(value, capsys, monkeypatch):
    # "abc" used to end in int()'s ValueError traceback with exit 1, the
    # code of a failed check
    monkeypatch.setenv("RACSEP_GRID_BUDGET", value)
    code, out, err = run_cli(["verify", "shallow", "--trials", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == ("racsep: RACSEP_GRID_BUDGET must be a non-negative "
                   f"integer, got {value!r}\n")


def test_bad_range_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "shallow", "--M", ""])
    assert ei.value.code == 2


@pytest.mark.parametrize("args", [
    "verify shallow --trials 0",
    "verify shallow --trials -3",
    "verify shallow --M 0 --trials 2",
    "verify shallow --R 2,0 --trials 2",
    "verify deep --R 0 --trials 2",
    "scan --L 0",
    "export mps --M 0 --out unused.txt",
])
def test_non_positive_size_usage_error(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as ei:
        main(args.split())
    assert ei.value.code == 2
    assert not (tmp_path / "unused.txt").exists()


@pytest.mark.parametrize("args", [
    "scan --trials 3",
    "scan --field float",
    "verify claim1 --field float",
    "verify conjecture --field exact",
    "verify mincut --field exact",
    "verify deep --L 3",
    "verify shallow --L 1",
    "verify lemmas --L 2",
    "verify shallow --P 9",
    "verify mincut --P 2",
    "verify claim1 --rel-tol 5",
    "verify mincut --rel-tol 1e-3",
    "verify lemmas --rel-tol 1e-3",
    "verify noclone --rel-tol 1e-3",
    "verify noclone --T 3",
    "verify noclone --M 2",
    "verify noclone --trials 3",
    "verify noclone --seed 1",
])
def test_every_command_refuses_flags_it_does_not_read(args, capsys):
    # a command parses only the flags its table entry lists: --field
    # belongs to verify shallow, --L to verify conjecture and scan, --P to
    # verify noclone, --rel-tol to verify shallow, deep, conjecture and
    # scan, and --M, --R, --T, --trials and --seed to every suite but
    # noclone; refused before a check
    with pytest.raises(SystemExit) as ei:
        main(args.split())
    out, err = capsys.readouterr()
    assert (ei.value.code, out) == (2, "")
    flag = " ".join(args.split()[-2:])
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("args", [
    "shallow --field float --rel-tol 1e-9 --trials 1",
    "deep --rel-tol 1e-9 --trials 1",
    "conjecture --L 2 --rel-tol 1e-9 --trials 1",
    "noclone --P 2",
])
def test_verify_accepts_flags_its_suite_reads(args, capsys):
    code, out, err = run_cli(["verify"] + args.split(), capsys)
    assert code in (0, 1) and out.startswith(HEADER) and err == ""


def test_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "bogus"])
    assert ei.value.code == 2


@pytest.mark.parametrize("T", ["10", "8,10"])
def test_lemmas_refuse_large_sweep_before_checking(T, capsys):
    # refused before the decomposition check, which takes ~25 s at T=10
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "lemmas", "--M", "3", "--R", "3",
                              "--T", T], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "exhaustive sweep needs Rbar <= 3, T/2 <= 4" in err


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("RACSEP_GRID_BUDGET", "4")
    code, _, err = run_cli(["verify", "deep", "--M", "2", "--R", "2",
                            "--T", "4", "--trials", "1"], capsys)
    assert code == 3
    assert "budget" in err


def test_mincut_reaches_beyond_the_weights_budget(capsys):
    # the 26-node chain is cut at once; its 2^24-entry weights tensor is
    # above the default budget of 10^7, so the rank is read off the
    # 3 x 2^12 mid-sequence states instead
    code, out, _ = run_cli(["verify", "mincut", "--M", "2", "--R", "3",
                            "--T", "24", "--trials", "1"], capsys)
    assert (code, out) == (0, HEADER + "mincut,2,3,24,1,exact,0.0,rank=3,"
                                       "rank=3,true\n")


def test_mincut_budget_exit_code_names_the_stage(capsys, monkeypatch):
    # the mid-sequence states are R * M^(T/2) = 3 * 2^12 = 12288 entries
    monkeypatch.setenv("RACSEP_GRID_BUDGET", "12287")
    code, out, err = run_cli(["verify", "mincut", "--M", "2", "--R", "3",
                              "--T", "24", "--trials", "1"], capsys)
    assert code == 3 and out == ""
    assert ("mid-sequence state array needs 12288 entries, budget is 12287"
            in err)


def test_shallow_budget_exit_code_names_the_stage(capsys, monkeypatch):
    # seed 7's (2,2,4) draw has rank 2, so its end-half states are
    # R * r * M^(T/2) = 2 * 2 * 4 = 16 entries; its mid states are 8
    monkeypatch.setenv("RACSEP_GRID_BUDGET", "15")
    code, out, err = run_cli(["verify", "shallow", "--M", "2", "--R", "2",
                              "--T", "4", "--trials", "1", "--seed", "7"],
                             capsys)
    assert code == 3 and out == ""
    assert "end-half state array needs 16 entries, budget is 15" in err


def test_shallow_reaches_beyond_the_weights_budget(capsys):
    # 2^24 weights-tensor entries, above the default budget of 10^7: the
    # exact rank is read off 3 x 3*2^12 end-half states instead
    code, out, _ = run_cli(["verify", "shallow", "--M", "2", "--R", "3",
                            "--T", "24", "--trials", "1"], capsys)
    assert (code, out) == (0, HEADER + "shallow,2,3,24,1,exact,0.0,3,3,true\n")


def test_claim1_reaches_beyond_the_grid_budget(capsys):
    # two 2^24-entry grids, above the default budget of 10^7: both ranks
    # are read off the 3 x 2^12 mid-sequence states of a frontier walk,
    # one under the lower-triangular templates, one under the identity
    code, out, _ = run_cli(["verify", "claim1", "--M", "2", "--R", "3",
                            "--T", "24", "--trials", "1"], capsys)
    assert (code, out) == (0, HEADER + "claim1,2,3,24,1,exact,0.0,3,3,true\n")


# sha256 of the stdout of the shallow-exact benchmark sweep at seed 7,
# recorded from the weights-tensor build it replaced: 801 lines, 11 false
SHALLOW_SWEEP_SHA256 = \
    "d109738ac2c4763c4c50c073cb7f8c1c5b98f3b7f48b28944e8dee9acd493528"


def test_shallow_sweep_golden_digest(capsys):
    code, out, _ = run_cli(["verify", "shallow", "--M", "2,3", "--R",
                            "1,2,3,4", "--T", "4,6", "--trials", "50",
                            "--seed", "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 801 and sum(l.endswith(",false") for l in lines) == 11
    assert hashlib.sha256(out.encode()).hexdigest() == SHALLOW_SWEEP_SHA256


# sha256 of the stdout of the exact min-cut acceptance sweep at seed 7:
# 321 lines, 3 false
MINCUT_SWEEP_SHA256 = \
    "0ddcc7bec153cbeceda8f925b277b1b326bf0a5a013058a40b222a4f022d09be"


def test_mincut_sweep_golden_digest(capsys):
    code, out, _ = run_cli(["verify", "mincut", "--M", "2,3", "--R",
                            "1,2,3,4", "--T", "4,6", "--trials", "20",
                            "--seed", "7"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 321 and sum(l.endswith(",false") for l in lines) == 3
    assert hashlib.sha256(out.encode()).hexdigest() == MINCUT_SWEEP_SHA256


def test_csv_byte_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(["verify", "mincut", "--M", "2", "--R", "2,3",
                              "--T", "4", "--trials", "5", "--seed", "11",
                              "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan(capsys):
    code, out, _ = run_cli(["scan", "--M", "2", "--R", "2", "--T", "4,6",
                            "--L", "1,2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("M,R,T,L,")
    assert len(lines) == 5  # header + 2x2 grid
    assert any("theorem=2" in l for l in lines)
    assert any("conjecture=" in l for l in lines)


# exact L=1 rows only: L >= 2 rows are float SVD ranks, which may differ
# across BLAS builds
SCAN_GOLDEN = """\
M,R,T,L,field,seed,observed_rank,reference,min_cut,basic_units
2,1,4,1,exact,7.0,1,theorem=1,1,1
2,1,6,1,exact,7.0,1,theorem=1,1,1
2,2,4,1,exact,7.0,2,theorem=2,2,1
2,2,6,1,exact,7.0,2,theorem=2,2,1
3,1,4,1,exact,7.0,1,theorem=1,1,1
3,1,6,1,exact,7.0,1,theorem=1,1,1
3,2,4,1,exact,7.0,2,theorem=2,2,1
3,2,6,1,exact,7.0,2,theorem=2,2,1
"""


def test_scan_golden_csv(capsys):
    assert run_cli(["scan", "--M", "2,3", "--R", "1,2", "--T", "4,6",
                    "--L", "1", "--seed", "7"], capsys)[:2] == (0, SCAN_GOLDEN)


def test_export_roundtrip(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code, _, _ = run_cli(["export", "weights", "--M", "2", "--R", "2",
                          "--T", "4", "--out", str(out)], capsys)
    assert code == 0
    t = parse_tensor(out.read_text())
    assert t.dims == (2, 2, 2, 2)
    # byte-identical re-export
    out2 = tmp_path / "w2.txt"
    run_cli(["export", "weights", "--M", "2", "--R", "2", "--T", "4",
             "--out", str(out2)], capsys)
    assert out.read_bytes() == out2.read_bytes()


def test_export_graphs(tmp_path, capsys):
    mps = tmp_path / "mps.txt"
    code, _, _ = run_cli(["export", "mps", "--M", "2", "--R", "2", "--T", "4",
                          "--out", str(mps)], capsys)
    assert code == 0
    g = parse_graph(mps.read_text())
    assert len(g.open_legs) == 4
    deep = tmp_path / "deep.txt"
    code, _, _ = run_cli(["export", "deep-tn", "--M", "2", "--R", "2",
                          "--T", "4", "--L", "2", "--out", str(deep)], capsys)
    assert code == 0
    assert parse_graph(deep.read_text()).open_legs


def test_export_weights_rejects_deep(capsys, tmp_path):
    out = tmp_path / "weights.txt"
    code, _, err = run_cli(["export", "weights", "--M", "2", "--R", "2",
                            "--T", "4", "--L", "2", "--out", str(out)],
                           capsys)
    assert code == 2
    assert not out.exists()


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "racsep.cli", "verify",
                           "noclone", "--P", "2,3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "noclone" in proc.stdout


def test_console_script_entry_point(capsys):
    # the [project.scripts] target, resolved the way an installed racsep
    # script resolves it, so a renamed or moved entry point fails here
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["racsep"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["verify", "noclone", "--P", "2"]) == 0
    assert "noclone" in capsys.readouterr().out


HEADER = "check,M,R,T,L,field,seed,observed,expected,pass\n"

# exact-only suites: CSV and exit code recorded from a known-good build
GOLDEN = [
    ("shallow --M 2 --R 1,2 --T 4 --trials 3 --seed 7", 1, """\
shallow,2,1,4,1,exact,7.0,1,1,true
shallow,2,1,4,1,exact,7.1,1,1,true
shallow,2,1,4,1,exact,7.2,1,1,true
shallow,2,2,4,1,exact,7.0,2,2,true
shallow,2,2,4,1,exact,7.1,1,2,false
shallow,2,2,4,1,exact,7.2,2,2,true
"""),
    ("claim1 --M 2 --R 1,2 --T 4 --trials 2 --seed 7", 0, """\
claim1,2,1,4,1,exact,7.0,1,1,true
claim1,2,1,4,1,exact,7.1,1,1,true
claim1,2,2,4,1,exact,7.0,2,2,true
claim1,2,2,4,1,exact,7.1,1,1,true
"""),
    ("lemmas --M 2 --R 2 --T 2 --trials 2 --seed 7", 0, """\
decomposition,2,2,2,1,exact,7.0,0 mismatches,0 mismatches,true
bucket,2,2,2,1,exact,d=1,"argmax=[(1, 0)]","argmax=[(1, 0)]",true
bucket,2,2,2,1,exact,d=2,"argmax=[(0, 1)]","argmax=[(0, 1)]",true
rearrangement,2,2,0,1,exact,7.0,0 non-strict,0 non-strict,true
rearrangement,2,2,0,1,exact,7.1,0 non-strict,0 non-strict,true
hadamard,4,4,0,1,exact,7.0,rank^3=4,<=20,true
hadamard,4,4,0,1,exact,7.1,rank^3=4,<=20,true
"""),
    # T=6: bucket chains of three states, so the lemma walks are exercised
    ("lemmas --M 3 --R 3 --T 6 --trials 2 --seed 7", 0, """\
decomposition,3,3,6,1,exact,7.0,0 mismatches,0 mismatches,true
bucket,3,3,6,1,exact,d=111,"argmax=[(3, 0, 0)]","argmax=[(3, 0, 0)]",true
bucket,3,3,6,1,exact,d=112,"argmax=[(2, 1, 0)]","argmax=[(2, 1, 0)]",true
bucket,3,3,6,1,exact,d=113,"argmax=[(2, 0, 1)]","argmax=[(2, 0, 1)]",true
bucket,3,3,6,1,exact,d=122,"argmax=[(1, 2, 0)]","argmax=[(1, 2, 0)]",true
bucket,3,3,6,1,exact,d=123,"argmax=[(1, 1, 1)]","argmax=[(1, 1, 1)]",true
bucket,3,3,6,1,exact,d=133,"argmax=[(1, 0, 2)]","argmax=[(1, 0, 2)]",true
bucket,3,3,6,1,exact,d=222,"argmax=[(0, 3, 0)]","argmax=[(0, 3, 0)]",true
bucket,3,3,6,1,exact,d=223,"argmax=[(0, 2, 1)]","argmax=[(0, 2, 1)]",true
bucket,3,3,6,1,exact,d=233,"argmax=[(0, 1, 2)]","argmax=[(0, 1, 2)]",true
bucket,3,3,6,1,exact,d=333,"argmax=[(0, 0, 3)]","argmax=[(0, 0, 3)]",true
rearrangement,3,3,0,1,exact,7.0,0 non-strict,0 non-strict,true
rearrangement,3,3,0,1,exact,7.1,0 non-strict,0 non-strict,true
hadamard,4,4,0,1,exact,7.0,rank^3=4,<=20,true
hadamard,4,4,0,1,exact,7.1,rank^3=4,<=20,true
"""),
    ("noclone --P 1,2", 0, """\
noclone,1,1,0,1,exact,-,basis=True ones=True,basis=True ones=True,true
noclone,2,2,0,1,exact,-,basis=True ones=False,basis=True ones=False,true
"""),
    ("mincut --M 2 --R 1,2 --T 4 --trials 3 --seed 5", 1, """\
mincut,2,1,4,1,exact,5.0,rank=1,rank=1,true
mincut,2,1,4,1,exact,5.1,rank=1,rank=1,true
mincut,2,1,4,1,exact,5.2,rank=1,rank=1,true
mincut,2,2,4,1,exact,5.0,rank=2,rank=2,true
mincut,2,2,4,1,exact,5.1,rank=0,rank=2,false
mincut,2,2,4,1,exact,5.2,rank=2,rank=2,true
"""),
]


def _golden_ids(rows):
    """Each row's suite name, with "-2", "-3", ... on its later rows."""
    names = [args.split()[0] for args, _, _ in rows]
    return [name + (f"-{names[:i].count(name) + 1}"
                    if name in names[:i] else "")
            for i, name in enumerate(names)]


@pytest.mark.parametrize("args,code,rows", GOLDEN, ids=_golden_ids(GOLDEN))
def test_verify_golden_csv(args, code, rows, capsys):
    assert run_cli(["verify"] + args.split(), capsys)[:2] == (code,
                                                              HEADER + rows)


# float SVD ranks may differ across BLAS builds, so these suites are checked
# against the direct report calls in grid order instead
@pytest.mark.parametrize("args,reports", [
    ("deep --M 2 --R 2,3 --T 4 --trials 2 --seed 3",
     lambda: [verify_deep_lower_bound(Cell(2, R, 4, 2), 2, seed=3)
              for R in (2, 3)]),
    ("conjecture --M 2 --R 2 --T 4,6 --L 1,2 --trials 2 --seed 3",
     lambda: [check_conjecture_bound(Cell(2, 2, T, L), trials=2, seed=3)
              for T, L in itertools.product((4, 6), (1, 2))]),
], ids=["deep", "conjecture"])
def test_verify_matches_direct_reports(args, reports, capsys):
    reps = reports()
    code = 0 if all(r.passed for r in reps) else 1
    assert run_cli(["verify"] + args.split(), capsys)[:2] == (
        code, rows_to_csv([row for r in reps for row in r.rows]))


# sha256 of exported files at M=2, R=2, T=4, seed 7, recorded from a
# known-good build; float weights and grids are left out because their
# matmul rounding may differ under another BLAS
EXPORT_SHA256 = [
    ("weights", "exact", 1,
     "37f3fc5ede95cdc55dbf7afd509a38d7ba9d085b702d8638f02de62c5aa8b017"),
    ("grid", "exact", 2,
     "18731ce71cb49bbb4fe54f5ebddd247aefbea96ef824e146780dd25bdce31dd6"),
    ("mps", "exact", 1,
     "39ec98c6c1d58e4fc6194e0b2fc208c82163fa005b381354ce7703c863620a3c"),
    ("deep-tn", "exact", 2,
     "1f6a827bc4c5b1b5684678acd8284dbe62f7a1398b73a8416c17ddde0d784434"),
    ("mps", "float", 1,
     "592603a2136693a49bae0da75ad44362cf634e5a6e30e3d23ef87da57e1a7455"),
    ("deep-tn", "float", 2,
     "a53516b7abff461374718b7bc55366571bed9cb1886096e359f3e2b952c6ed00"),
]


@pytest.mark.parametrize("what,field,L,digest", EXPORT_SHA256,
                         ids=[f"{w}-{f}" for w, f, _, _ in EXPORT_SHA256])
def test_export_golden_bytes(what, field, L, digest, tmp_path, capsys):
    out = tmp_path / "export.txt"
    assert run_cli(["export", what, "--M", "2", "--R", "2", "--T", "4",
                    "--L", str(L), "--field", field, "--seed", "7",
                    "--out", str(out)], capsys)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_main_builds_one_parser_and_shares_no_default(monkeypatch, capsys):
    # the parser is built once per process; every call still gets its own
    # default lists, parsed from FLAGS' strings, so mutating one call's
    # arguments leaks into no later call
    built, seen = [], []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    cli._parser.cache_clear()

    def spy(args):
        seen.append(vars(args).copy())
        for value in vars(args).values():
            if isinstance(value, list):
                value.append(99)
        return []

    shallow = cli.SUITES["shallow"][0]
    monkeypatch.setitem(cli.SUITES, "shallow", (shallow, spy))
    monkeypatch.setattr(cli, "cmd_scan", spy)
    flags = copy.deepcopy(cli.FLAGS)
    assert main(["verify", "shallow", "--M", "3", "--R", "1,4", "--T", "6",
                 "--field", "float", "--rel-tol", "1e-3"]) == 0
    for _ in range(2):
        assert main(["verify", "shallow"]) == 0
    assert main(["scan", "--M", "3", "--L", "2"]) == []
    for _ in range(2):
        assert main(["scan"]) == []
    capsys.readouterr()
    first, *defaults = seen[:3]
    assert (first["M"], first["R"], first["T"], first["field"],
            first["rel_tol"]) == ([3, 99], [1, 4, 99], [6, 99], "float", 1e-3)
    parsed = {flag: kw["type"](kw["default"]) if "type" in kw
              else kw["default"] for flag, kw in flags.items()}
    for args in defaults:
        assert {flag: args[flag] for flag in shallow} == {
            flag: parsed[flag] + [99] if isinstance(parsed[flag], list)
            else parsed[flag] for flag in shallow}
    assert [[a[k] for k in "MRTL"] for a in seen[3:]] == [
        [[3, 99], [2, 99], [4, 99], [2, 99]]] + [
        [[2, 99], [2, 99], [4, 99], [1, 99]]] * 2
    assert cli.FLAGS == flags
    assert built == [1]


def test_each_suite_declares_the_flags_its_check_reads(monkeypatch):
    # with every check stubbed out, a suite's lambda reads exactly the flags
    # its SUITES entry lists, so no suite parses a flag it ignores
    for name in dir(cli):
        if name.startswith(("check_", "verify_")):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: None)

    class Reads:
        def __init__(self, args):
            self.args, self.names = args, set()

        def __getattr__(self, name):
            self.names.add(name)
            return getattr(self.args, name)

    for suite, (flags, check) in cli.SUITES.items():
        args = Reads(cli.build_parser().parse_args(["verify", suite]))
        check(args)
        assert args.names == set(flags), suite


def _readme_cli_lines():
    """Every ``racsep ...`` line of the sh block under README's ## CLI."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("racsep ")]


README_CLI = _readme_cli_lines()


def test_readme_has_cli_examples():
    assert len(README_CLI) >= 8


@pytest.mark.parametrize("line", README_CLI)
def test_readme_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(shlex.split(line)[1:], capsys)
    assert code in (0, 1) and err == ""
