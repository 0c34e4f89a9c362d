"""Command-line driver: verification sweeps, parameter scans, and exports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/validation
error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import sys

from .builders import build_grid_tensor, build_weights_tensor
from .errors import RacsepError, ResourceBudgetError
from .ranks import DEFAULT_REL_TOL, multiset_coefficient, start_end_rank
from .tensor import EXACT, FLOAT, save_tensor
from .verification import (check_bucket_lemma, check_claim1_equality,
                           check_conjecture_bound,
                           check_decomposition_identity,
                           check_hadamard_power_bound, check_no_cloning,
                           check_rearrangement_lemma, draw_params,
                           rows_to_csv, trial_rng, verify_deep_lower_bound,
                           verify_min_cut, verify_shallow_rank_law)

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_RESOURCE = 0, 1, 2, 3


def _positive(text):
    """A size argument: one integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _int_list(text):
    values = [_positive(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError("empty range")
    return values


def _add_grid_flags(p):
    p.add_argument("--M", type=_int_list, default=[2], help="template counts")
    p.add_argument("--R", type=_int_list, default=[2], help="hidden widths")
    p.add_argument("--T", type=_int_list, default=[4], help="sequence lengths")
    p.add_argument("--L", type=_int_list, default=[1], help="depths")
    p.add_argument("--trials", type=_positive, default=30)
    p.add_argument("--field", choices=[EXACT, FLOAT], default=EXACT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")


def _even(values):
    odd = [t for t in values if t % 2]
    if odd:
        raise RacsepError(f"T must be even, got {odd[0]}")
    return values


def _cells(a):
    return itertools.product(a.M, a.R, _even(a.T))


def _depth_cells(a):
    return itertools.product(a.M, a.R, _even(a.T), a.L)


# verify suite -> (cells of the parsed args, per-cell call returning reports).
# The calls look checks up by module-level name when they run, so patched
# module attributes (tracing, mocks) see every call.
SUITES = {
    "shallow": (_cells, lambda a, M, R, T: [verify_shallow_rank_law(
        M, R, T, a.trials, field=a.field, seed=a.seed, rel_tol=a.rel_tol)]),
    "deep": (_cells, lambda a, M, R, T: [verify_deep_lower_bound(
        M, R, T, a.trials, seed=a.seed, rel_tol=a.rel_tol)]),
    "claim1": (_cells, lambda a, M, R, T: [check_claim1_equality(
        M, R, T, a.trials, seed=a.seed)]),
    "conjecture": (_depth_cells, lambda a, M, R, T, L: [check_conjecture_bound(
        M, R, T, L, trials=a.trials, seed=a.seed, rel_tol=a.rel_tol)]),
    "lemmas": (_cells, lambda a, M, R, T: [
        check_decomposition_identity(M, min(R, 3), T, seed=a.seed),
        check_bucket_lemma(min(R, 3), T)]),
    "noclone": (lambda a: ((P,) for P in a.P),
                lambda a, P: [check_no_cloning(P)]),
    "mincut": (_cells, lambda a, M, R, T: [verify_min_cut(
        M, R, T, a.trials, seed=a.seed)]),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="racsep",
        description="Separation-rank checks for multiplicative recurrent "
                    "networks and their tensor networks.")
    sub = ap.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify", help="run one verification suite")
    vp.add_argument("suite", choices=list(SUITES))
    _add_grid_flags(vp)
    vp.add_argument("--P", type=_int_list, default=[2, 3, 4],
                    help="duplication dims for the noclone suite")

    sp = sub.add_parser("scan", help="rank/bound table over a parameter grid")
    _add_grid_flags(sp)

    ep = sub.add_parser("export", help="write a tensor or graph as text")
    ep.add_argument("what", choices=["weights", "grid", "mps", "deep-tn"])
    ep.add_argument("--M", type=_positive, default=2)
    ep.add_argument("--R", type=_positive, default=2)
    ep.add_argument("--T", type=_positive, default=4)
    ep.add_argument("--L", type=_positive, default=1)
    ep.add_argument("--field", choices=[EXACT, FLOAT], default=EXACT)
    ep.add_argument("--seed", type=int, default=0)
    ep.add_argument("--out", required=True)
    return ap


def _emit(args, text):
    """Writes a CSV report to --out, or to stdout without one."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args):
    cells, check = SUITES[args.suite]
    reports = [rep for cell in cells(args) for rep in check(args, *cell)]
    if args.suite == "lemmas":
        reports += [check_rearrangement_lemma(3, max(args.R), args.trials,
                                              seed=args.seed),
                    check_hadamard_power_bound(args.trials, seed=args.seed)]
    _emit(args, rows_to_csv([r for rep in reports for r in rep.rows]))
    return EXIT_PASS if all(rep.passed for rep in reports) else EXIT_FAIL


SCAN_COLUMNS = ("M", "R", "T", "L", "field", "seed", "observed_rank",
                "reference", "min_cut", "basic_units")


def cmd_scan(args):
    from .tn import build_mps, count_basic_units, min_cut
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SCAN_COLUMNS)
    for M, R, T, L in _depth_cells(args):
        rng = trial_rng(args.seed, M, R, T, L, 0)
        if L == 1:
            p = draw_params(rng, M, R, L=1, field=EXACT)
            rank = start_end_rank(build_weights_tensor(p, T=T).tensor).rank
            ref = f"theorem={min(R, M ** (T // 2))}"
            cut = str(min_cut(build_mps(p, T))[0])
            fld = EXACT
        else:
            p = draw_params(rng, M, R, L=L, field=FLOAT)
            rank = start_end_rank(build_grid_tensor(p, T=T).tensor,
                                  args.rel_tol).rank
            inner = multiset_coefficient(T // 2, L - 1)
            bound = min(multiset_coefficient(min(M, R), inner), M ** (T // 2))
            ref = f"conjecture={bound}"
            cut = ""
            fld = FLOAT
        units = count_basic_units(L, T).closed_form
        w.writerow([M, R, T, L, fld, f"{args.seed}.0", rank, ref, cut, units])
    _emit(args, buf.getvalue())
    return EXIT_PASS


def cmd_export(args):
    from .tn import build_deep_tn, build_mps, save_graph
    _even([args.T])
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
