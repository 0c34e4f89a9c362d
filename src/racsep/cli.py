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

from .builders import (build_grid_tensor, build_weights_tensor,
                       separation_rank)
from .errors import RacsepError, ResourceBudgetError
from .network import Cell
from .ranks import DEFAULT_REL_TOL, check_rel_tol
from .tensor import EXACT, FLOAT, save_tensor
from .tn import (build_deep_tn, build_mps, count_basic_units, min_cut,
                 save_graph)
from .verification import (check_bucket_lemma, check_claim1_equality,
                           check_conjecture_bound,
                           check_decomposition_identity,
                           check_hadamard_power_bound, check_no_cloning,
                           check_rearrangement_lemma, conjectured_bound,
                           draw_trials, rows_to_csv, verify_deep_lower_bound,
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


def _add_grid_flags(p, trials):
    """The parameter-grid flags; ``--trials`` and ``--field`` if trials."""
    p.add_argument("--M", type=_int_list, default=[2], help="template counts")
    p.add_argument("--R", type=_int_list, default=[2], help="hidden widths")
    p.add_argument("--T", type=_int_list, default=[4], help="sequence lengths")
    p.add_argument("--L", type=_int_list, default=[1], help="depths")
    if trials:
        p.add_argument("--trials", type=_positive, default=30)
        p.add_argument("--field", choices=[EXACT, FLOAT])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")


def _grid(a, depths=None):
    """Every Cell of the grid (``depths`` in place of --L for a suite stated
    at one depth), all built, so validated, before any check runs."""
    return [Cell(*c) for c in itertools.product(a.M, a.R, a.T, depths or a.L)]


def _lemmas(a):
    """Decomposition and bucket checks per cell, then the other two once; a
    cell too large for the exhaustive bucket sweep (R is capped at 3 there,
    T/2 is not) is refused before any check runs."""
    cells = _grid(a)
    if any(c.half > 4 for c in cells):
        raise RacsepError("exhaustive sweep needs Rbar <= 3, T/2 <= 4")
    return [rep for c in cells for rep in (
        check_decomposition_identity(Cell(c.M, min(c.R, 3), c.T), seed=a.seed),
        check_bucket_lemma(min(c.R, 3), c.T))] + [
        check_rearrangement_lemma(3, max(a.R), a.trials, seed=a.seed),
        check_hadamard_power_bound(a.trials, seed=a.seed)]


# verify suite -> parsed args -> reports.  Checks are looked up by module-level
# name at call time, so patched module attributes (tracing, mocks) see them.
SUITES = {
    "shallow": lambda a: [verify_shallow_rank_law(
        c, a.trials, field=a.field, seed=a.seed, rel_tol=a.rel_tol)
        for c in _grid(a)],
    "deep": lambda a: [verify_deep_lower_bound(
        c, a.trials, seed=a.seed, rel_tol=a.rel_tol) for c in _grid(a, [2])],
    "claim1": lambda a: [check_claim1_equality(c, a.trials, seed=a.seed)
                         for c in _grid(a)],
    "conjecture": lambda a: [check_conjecture_bound(
        c, trials=a.trials, seed=a.seed, rel_tol=a.rel_tol)
        for c in _grid(a)],
    "lemmas": _lemmas,
    "noclone": lambda a: [check_no_cloning(P) for P in a.P],
    "mincut": lambda a: [verify_min_cut(c, a.trials, seed=a.seed)
                         for c in _grid(a)],
}

# verify flag -> (the suites that read it, its default there).  On verify
# these flags parse to None when not given, so other suites can refuse them.
_GRID_SUITES = set(SUITES) - {"noclone"}
SUITE_FLAGS = {"M": (_GRID_SUITES, [2]), "R": (_GRID_SUITES, [2]),
               "T": (_GRID_SUITES, [4]),
               "field": ({"shallow"}, EXACT), "L": ({"conjecture"}, [1]),
               "P": ({"noclone"}, [2, 3, 4]),
               "rel_tol": ({"shallow", "deep", "conjecture"}, DEFAULT_REL_TOL)}


def _suite_flags(args):
    """Fills in SUITE_FLAGS' defaults, refusing a flag its suite won't read."""
    for flag, (suites, default) in SUITE_FLAGS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif args.suite not in suites:
            raise RacsepError(f"--{flag.replace('_', '-')} applies only to "
                              f"verify {', '.join(sorted(suites))}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="racsep",
        description="Separation-rank checks for multiplicative recurrent "
                    "networks and their tensor networks.")
    sub = ap.add_subparsers(dest="command", required=True)

    vp = sub.add_parser("verify", help="run one verification suite")
    vp.add_argument("suite", choices=list(SUITES))
    _add_grid_flags(vp, trials=True)
    vp.add_argument("--P", type=_int_list,
                    help="duplication dims for the noclone suite")
    vp.set_defaults(**dict.fromkeys(SUITE_FLAGS))

    sp = sub.add_parser("scan", help="rank/bound table over a parameter grid")
    _add_grid_flags(sp, trials=False)

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
    _suite_flags(args)
    check_rel_tol(args.rel_tol)
    reports = SUITES[args.suite](args)
    _emit(args, rows_to_csv([r for rep in reports for r in rep.rows]))
    return EXIT_PASS if all(rep.passed for rep in reports) else EXIT_FAIL


SCAN_COLUMNS = ("M", "R", "T", "L", "field", "seed", "observed_rank",
                "reference", "min_cut", "basic_units")


def cmd_scan(args):
    check_rel_tol(args.rel_tol)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SCAN_COLUMNS)
    for cell in _grid(args):
        fld = EXACT if cell.L == 1 else FLOAT
        [(label, p)] = draw_trials(args.seed, cell, 1, fld)
        rank = separation_rank(p, cell.T, rel_tol=args.rel_tol).rank
        if cell.L == 1:
            ref = f"theorem={min(cell.R, cell.width)}"
            cut = str(min_cut(build_mps(p, cell.T))[0])
        else:
            ref = f"conjecture={conjectured_bound(cell)}"
            cut = ""
        units = count_basic_units(cell).closed_form
        w.writerow([*cell, fld, label, rank, ref, cut, units])
    _emit(args, buf.getvalue())
    return EXIT_PASS


def cmd_export(args):
    cell = Cell(args.M, args.R, args.T, args.L)
    [(_, p)] = draw_trials(args.seed, cell, 1, args.field)
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
