"""Command-line interface: exit codes, CSV determinism, exports."""

import hashlib
import itertools
import subprocess
import sys

import pytest

from racsep import (check_conjecture_bound, load_graph, load_tensor,
                    rows_to_csv, verify_deep_lower_bound)
from racsep.cli import main


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


def test_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "bogus"])
    assert ei.value.code == 2


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("RACSEP_GRID_BUDGET", "4")
    code, _, err = run_cli(["verify", "deep", "--M", "2", "--R", "2",
                            "--T", "4", "--trials", "1"], capsys)
    assert code == 3
    assert "budget" in err


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


def test_export_roundtrip(tmp_path, capsys):
    out = tmp_path / "w.txt"
    code, _, _ = run_cli(["export", "weights", "--M", "2", "--R", "2",
                          "--T", "4", "--out", str(out)], capsys)
    assert code == 0
    t = load_tensor(out)
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
    g = load_graph(mps)
    assert len(g.open_legs) == 4
    deep = tmp_path / "deep.txt"
    code, _, _ = run_cli(["export", "deep-tn", "--M", "2", "--R", "2",
                          "--T", "4", "--L", "2", "--out", str(deep)], capsys)
    assert code == 0
    assert load_graph(deep).open_legs


def test_export_weights_rejects_deep(capsys):
    code, _, err = run_cli(["export", "weights", "--M", "2", "--R", "2",
                            "--T", "4", "--L", "2", "--out", "/tmp/x.txt"],
                           capsys)
    assert code == 2


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "racsep.cli", "verify",
                           "noclone", "--P", "2,3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "noclone" in proc.stdout


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
    ("noclone --P 1,2 --T 3", 0, """\
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


@pytest.mark.parametrize("args,code,rows", GOLDEN,
                         ids=[g[0].split()[0] for g in GOLDEN])
def test_verify_golden_csv(args, code, rows, capsys):
    assert run_cli(["verify"] + args.split(), capsys)[:2] == (code,
                                                              HEADER + rows)


# float SVD ranks may differ across BLAS builds, so these suites are checked
# against the direct report calls in grid order instead
@pytest.mark.parametrize("args,reports", [
    ("deep --M 2 --R 2,3 --T 4 --trials 2 --seed 3",
     lambda: [verify_deep_lower_bound(2, R, 4, 2, seed=3) for R in (2, 3)]),
    ("conjecture --M 2 --R 2 --T 4,6 --L 1,2 --trials 2 --seed 3",
     lambda: [check_conjecture_bound(2, 2, T, L, trials=2, seed=3)
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
