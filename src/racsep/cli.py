"""Command-line driver: verification sweeps, parameter scans, and exports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/validation
error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import sys

from .builders import (build_grid_tensor, build_weights_tensor,
                       separation_rank)
from .errors import RacsepError, ResourceBudgetError
from .network import Cell
from .ranks import DEFAULT_REL_TOL, check_rel_tol, multiset_coefficient
from .tensor import EXACT, FLOAT, dump_tensor
from .tn import build_deep_tn, build_mps, dump_graph, min_cut
from .verification import (check_bucket_lemma, check_claim1_equality,
                           check_conjecture_bound,
                           check_decomposition_identity,
                           check_hadamard_power_bound, check_no_cloning,
                           check_rearrangement_lemma, conjectured_bound,
                           draw_trials, lemma_cells, rows_to_csv,
                           verify_deep_lower_bound, verify_min_cut,
                           verify_shallow_rank_law)

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


# flag -> its argparse options.  List defaults are strings, which argparse
# parses anew on every parse, so no two parses share a list.
FLAGS = {
    "M": dict(type=_int_list, default="2", help="template counts"),
    "R": dict(type=_int_list, default="2", help="hidden widths"),
    "T": dict(type=_int_list, default="4", help="sequence lengths"),
    "L": dict(type=_int_list, default="1", help="depths"),
    "P": dict(type=_int_list, default="2,3,4", help="duplication dims"),
    "trials": dict(type=_positive, default=30),
    "field": dict(choices=[EXACT, FLOAT], default=EXACT),
    "seed": dict(type=int, default=0),
    "rel_tol": dict(type=float, default=DEFAULT_REL_TOL),
}


def _add_flags(p, flags):
    for flag in flags:
        p.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])


def _grid(a, depths):
    """Every Cell of the --M x --R x --T grid at ``depths``, all built, so
    validated, before any check runs."""
    return [Cell(*c) for c in itertools.product(a.M, a.R, a.T, depths)]


def _lemmas(a):
    """The decomposition check on each of :func:`lemma_cells`, the bucket
    check on each new bucket, then the other two once."""
    reports = []
    for c, new_bucket in lemma_cells(_grid(a, [1])):
        reports.append(check_decomposition_identity(c, seed=a.seed))
        if new_bucket:
            reports.append(check_bucket_lemma(c.R, c.T))
    return reports + [
        check_rearrangement_lemma(3, max(a.R), a.trials, seed=a.seed),
        check_hadamard_power_bound(a.trials, seed=a.seed)]


# verify suite -> (the flags its check reads, parsed args -> reports).  Checks
# are looked up by module-level name at call time, so patched module
# attributes (tracing, mocks) see them.
_SWEEP = ("M", "R", "T", "trials", "seed")
SUITES = {
    "shallow": (_SWEEP + ("field", "rel_tol"), lambda a: [
        verify_shallow_rank_law(c, a.trials, field=a.field, seed=a.seed,
                                rel_tol=a.rel_tol) for c in _grid(a, [1])]),
    "deep": (_SWEEP + ("rel_tol",), lambda a: [verify_deep_lower_bound(
        c, a.trials, seed=a.seed, rel_tol=a.rel_tol) for c in _grid(a, [2])]),
    "claim1": (_SWEEP, lambda a: [check_claim1_equality(c, a.trials,
                                                        seed=a.seed)
                                  for c in _grid(a, [1])]),
    "conjecture": (_SWEEP + ("L", "rel_tol"), lambda a: [
        check_conjecture_bound(c, trials=a.trials, seed=a.seed,
                               rel_tol=a.rel_tol) for c in _grid(a, a.L)]),
    "lemmas": (_SWEEP, _lemmas),
    "noclone": (("P",), lambda a: [check_no_cloning(P) for P in a.P]),
    "mincut": (_SWEEP, lambda a: [verify_min_cut(c, a.trials, seed=a.seed)
                                  for c in _grid(a, [1])]),
}

# export target -> its text, from params and T
EXPORTS = {"weights": lambda p, T: dump_tensor(build_weights_tensor(p, T=T)),
           "grid": lambda p, T: dump_tensor(build_grid_tensor(p, T=T)),
           "mps": lambda p, T: dump_graph(build_mps(p, T)),
           "deep-tn": lambda p, T: dump_graph(build_deep_tn(p, T))}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="racsep",
        description="Separation-rank checks for multiplicative recurrent "
                    "networks and their tensor networks.")
    sub = ap.add_subparsers(dest="command", required=True)
    out_help = "CSV output path (default stdout)"

    vp = sub.add_parser("verify", help="run one verification suite")
    suites = vp.add_subparsers(dest="suite", required=True)
    for suite, (flags, _) in SUITES.items():
        p = suites.add_parser(suite)
        _add_flags(p, flags)
        p.add_argument("--out", help=out_help)

    sp = sub.add_parser("scan", help="rank/bound table over a parameter grid")
    _add_flags(sp, ("M", "R", "T", "L", "seed", "rel_tol"))
    sp.add_argument("--out", help=out_help)

    ep = sub.add_parser("export", help="write a tensor or graph as text")
    ep.add_argument("what", choices=list(EXPORTS))
    for flag, default in zip("MRTL", (2, 2, 4, 1)):
        ep.add_argument("--" + flag, type=_positive, default=default)
    _add_flags(ep, ("field", "seed"))
    ep.add_argument("--out", required=True)
    return ap


@functools.cache
def _parser():
    """The process's one parser, built on the first :func:`main` call."""
    return build_parser()


def _emit(args, text):
    """Writes a CSV report or an export to --out, or to stdout without one;
    the one place racsep writes a file."""
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args):
    reports = SUITES[args.suite][1](args)
    _emit(args, rows_to_csv([r for rep in reports for r in rep.rows]))
    return EXIT_PASS if all(rep.passed for rep in reports) else EXIT_FAIL


SCAN_COLUMNS = ("M", "R", "T", "L", "field", "seed", "observed_rank",
                "reference", "min_cut", "basic_units")


def cmd_scan(args):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SCAN_COLUMNS)
    for cell in _grid(args, args.L):
        fld = EXACT if cell.L == 1 else FLOAT
        [(label, p)] = draw_trials(args.seed, cell, 1, fld)
        rank = separation_rank(p, cell.T, rel_tol=args.rel_tol).rank
        if cell.L == 1:
            ref = f"theorem={min(cell.R, cell.width)}"
            cut = str(min_cut(build_mps(p, cell.T))[0])
        else:
            ref = f"conjecture={conjectured_bound(cell)}"
            cut = ""
        units = multiset_coefficient(cell.half, cell.L - 1)
        w.writerow([*cell, fld, label, rank, ref, cut, units])
    _emit(args, buf.getvalue())
    return EXIT_PASS


def cmd_export(args):
    cell = Cell(args.M, args.R, args.T, args.L)
    [(_, p)] = draw_trials(args.seed, cell, 1, args.field)
    _emit(args, EXPORTS[args.what](p, args.T))
    return EXIT_PASS


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if hasattr(args, "rel_tol"):
            check_rel_tol(args.rel_tol)
        return {"verify": cmd_verify, "scan": cmd_scan,
                "export": cmd_export}[args.command](args)
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
