"""Command-line driver: verification sweeps, parameter scans, and exports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/validation
error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from .builders import build_grid_tensor, build_weights_tensor
from .errors import RacsepError, ResourceBudgetError
from .ranks import DEFAULT_REL_TOL, multiset_coefficient
from .tensor import EXACT, FLOAT, save_tensor
from .verification import (check_bucket_lemma, check_claim1_equality,
                           check_conjecture_bound,
                           check_decomposition_identity,
                           check_hadamard_power_bound, check_no_cloning,
                           check_rearrangement_lemma, draw_params,
                           rows_to_csv, trial_rng, verify_deep_lower_bound,
                           verify_min_cut, verify_shallow_rank_law,
                           _grid_matrix_rank, _weights_matrix_rank)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_RESOURCE = 0, 1, 2, 3


def _int_list(text):
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty range")
    return values


def _add_grid_flags(p):
    p.add_argument("--M", type=_int_list, default=[2], help="template counts")
    p.add_argument("--R", type=_int_list, default=[2], help="hidden widths")
    p.add_argument("--T", type=_int_list, default=[4], help="sequence lengths")
    p.add_argument("--L", type=_int_list, default=[1], help="depths")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--field", choices=[EXACT, FLOAT], default=EXACT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="racsep",
        description="Separation-rank checks for multiplicative recurrent "
                    "networks and their tensor networks.")
    sub = ap.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify", help="run one verification suite")
    vp.add_argument("suite", choices=["shallow", "deep", "claim1",
                                      "conjecture", "lemmas", "noclone",
                                      "mincut"])
    _add_grid_flags(vp)
    vp.add_argument("--P", type=_int_list, default=[2, 3, 4],
                    help="duplication dims for the noclone suite")

    sp = sub.add_parser("scan", help="rank/bound table over a parameter grid")
    _add_grid_flags(sp)

    ep = sub.add_parser("export", help="write a tensor or graph as text")
    ep.add_argument("what", choices=["weights", "grid", "mps", "deep-tn"])
    ep.add_argument("--M", type=int, default=2)
    ep.add_argument("--R", type=int, default=2)
    ep.add_argument("--T", type=int, default=4)
    ep.add_argument("--L", type=int, default=1)
    ep.add_argument("--field", choices=[EXACT, FLOAT], default=EXACT)
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--out", required=True)
    return ap


def _even(values):
    odd = [t for t in values if t % 2]
    if odd:
        raise RacsepError(f"T must be even, got {odd[0]}")
    return values


def cmd_verify(args):
    reports = []
    if args.suite == "shallow":
        for M in args.M:
            for R in args.R:
                for T in _even(args.T):
                    reports.append(verify_shallow_rank_law(
                        M, R, T, args.trials, field=args.field,
                        seed=args.seed, rel_tol=args.rel_tol))
    elif args.suite == "deep":
        for M in args.M:
            for R in args.R:
                for T in _even(args.T):
                    reports.append(verify_deep_lower_bound(
                        M, R, T, args.trials, seed=args.seed,
                        rel_tol=args.rel_tol))
    elif args.suite == "claim1":
        for M in args.M:
            for R in args.R:
                for T in _even(args.T):
                    reports.append(check_claim1_equality(
                        M, R, T, args.trials, seed=args.seed))
    elif args.suite == "conjecture":
        for M in args.M:
            for R in args.R:
                for T in _even(args.T):
                    for L in args.L:
                        reports.append(check_conjecture_bound(
                            M, R, T, L, trials=args.trials, seed=args.seed,
                            rel_tol=args.rel_tol))
    elif args.suite == "lemmas":
        for M in args.M:
            for R in args.R:
                for T in _even(args.T):
                    reports.append(check_decomposition_identity(
                        M, min(R, 3), T, seed=args.seed))
                    reports.append(check_bucket_lemma(min(R, 3), T))
        reports.append(check_rearrangement_lemma(
            3, max(args.R), args.trials, seed=args.seed))
        reports.append(check_hadamard_power_bound(args.trials, seed=args.seed))
    elif args.suite == "noclone":
        for P in args.P:
            reports.append(check_no_cloning(P))
    elif args.suite == "mincut":
        for M in args.M:
            for R in args.R:
                for T in _even(args.T):
                    reports.append(verify_min_cut(
                        M, R, T, args.trials, seed=args.seed))
    rows = [r for rep in reports for r in rep.rows]
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if all(rep.passed for rep in reports) else EXIT_FAIL


SCAN_COLUMNS = ("M", "R", "T", "L", "field", "seed", "observed_rank",
                "reference", "min_cut", "basic_units")


def cmd_scan(args):
    from .tn import build_mps, count_basic_units, min_cut
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SCAN_COLUMNS)
    for M in args.M:
        for R in args.R:
            for T in _even(args.T):
                for L in args.L:
                    rng = trial_rng(args.seed, M, R, T, L, 0)
                    if L == 1:
                        p = draw_params(rng, M, R, L=1, field=EXACT)
                        rank = _weights_matrix_rank(p, T)
                        ref = f"theorem={min(R, M ** (T // 2))}"
                        cut = str(min_cut(build_mps(p, T))[0])
                        fld = EXACT
                    else:
                        p = draw_params(rng, M, R, L=L, field=FLOAT)
                        rank = _grid_matrix_rank(p, T, args.rel_tol)
                        inner = multiset_coefficient(T // 2, L - 1)
                        bound = min(multiset_coefficient(min(M, R), inner),
                                    M ** (T // 2))
                        ref = f"conjecture={bound}"
                        cut = ""
                        fld = FLOAT
                    units = count_basic_units(L, T).closed_form
                    w.writerow([M, R, T, L, fld, f"{args.seed}.0",
                                rank, ref, cut, units])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_export(args):
    from .tn import build_deep_tn, build_mps, save_graph
    if args.T % 2:
        raise RacsepError(f"T must be even, got {args.T}")
    rng = trial_rng(args.seed, args.M, args.R, args.T, args.L, 0)
    p = draw_params(rng, args.M, args.R, L=args.L, field=args.field)
    if args.what == "weights":
        save_tensor(build_weights_tensor(p, T=args.T).tensor, args.out)
    elif args.what == "grid":
        save_tensor(build_grid_tensor(p, T=args.T).tensor, args.out)
    elif args.what == "mps":
        save_graph(build_mps(p, args.T), args.out)
    else:
        save_graph(build_deep_tn(p, args.T), args.out)
    return EXIT_PASS


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "scan":
            return cmd_scan(args)
        return cmd_export(args)
    except ResourceBudgetError as e:
        print(f"racsep: resource budget exceeded: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except RacsepError as e:
        print(f"racsep: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"racsep: {e.filename or ''}: {e.strerror or e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
