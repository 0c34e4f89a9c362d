"""The benchmark's fixed workloads, generated from a seed.

Each workload is a list of operations.  An operation calls racsep's public
entry points (``racsep.cli.main`` for one verify cell, ``racsep.network`` /
``racsep.tn`` functions for one tensor-network check) and checks the output.
Module attributes are looked up at call time, so a traced run sees its
wrappers.  Import this module only after ``racsep`` is importable.
"""

from __future__ import annotations

import csv
import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from racsep import cli, network, tn
from racsep.network import RAC_PRODUCT, TemplateEncoder
from racsep.tensor import EXACT, FLOAT
from racsep.verification import CSV_COLUMNS, DEFAULT_THRESHOLD, draw_params

SHALLOW_CELLS = [(M, R, T) for M in (2, 3) for R in (1, 2, 3, 4) for T in (4, 6)]
SHALLOW_TRIALS = 50
DEEP_CELLS = [(M, R, T) for M in (2, 3) for R in (2, 3) for T in (4, 6)] + \
    [(2, 2, 8), (3, 2, 8)]
DEEP_TRIALS = 30  # the CLI default
CONJECTURE_CELLS = [(2, 2, 6, L) for L in range(2, 7)] + \
    [(3, 3, 6, 2), (3, 3, 6, 3)]
CONJECTURE_TRIALS = 10  # the CLI default
TN_CELLS = [(2, 2, 4, 2), (2, 2, 6, 2), (2, 2, 8, 2), (3, 3, 6, 2),
            (2, 2, 4, 3), (2, 2, 6, 3)]
CUT_CHAINS = [(2, 3, 12), (2, 3, 14), (2, 3, 16)]  # (M, R, T)
# float contraction must match forward_deep within this share of the
# absolute-value forward pass (a bound on every summed term)
FLOAT_REL_TOL = 1e-10

WHY = {
    "shallow-exact": "exact shallow rank law; Fraction arithmetic in "
                     "build_weights_tensor dominates, with many small "
                     "rank_exact calls; no grids, SVD or tn.  Integer draws "
                     "hit rank-deficient sets (a zero weight at R=1), so "
                     "some cells fail at most seeds",
    "deep-grid": "deep lower bound and conjecture cells; grid walk "
                 "(build_grid_tensor, step_deep), Bareiss on huge integers "
                 "and SVD; carries the float-oracle defect",
    "tn-contract": "codec round trips, greedy contraction of deep graphs "
                   "checked against forward_deep, and brute-force min_cut "
                   "on MPS chains; builders and ranks idle",
}

# How much more a workload slows down than the probe unit when other tenants
# load the host: its time grows as slowdown ** exponent, where slowdown is
# the probe unit's time over PROBE_REF_S.  Fitted by least squares of
# log(pass wall time) on log(slowdown), with one intercept per seed, over ten
# seeds of 40 s runs on the 2-vCPU tuning host at slowdowns 1.15-2.2.
# Fraction-heavy shallow-exact suffers most; numpy-bound tn-contract tracks
# the probe.
LOAD_EXPONENT = {
    "shallow-exact": 1.25,
    "deep-grid": 1.08,
    "tn-contract": 1.0,
}


@dataclass
class Outcome:
    """Result of one operation.

    ``problem`` is set when an output check failed or the call raised; a
    verify cell that exits 1 with a consistent CSV is ``failed`` without a
    problem (the program itself reports a failed check).
    """

    checks: int
    failed: bool
    problem: str = ""
    output: str = ""


def csv_problem(rc, text, n_rows):
    """Why a verify cell's exit code and CSV disagree, or ''."""
    if rc not in (0, 1):
        return f"exit code {rc}"
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        return "missing CSV header"
    rows = list(csv.reader(lines[1:]))
    if len(rows) != n_rows:
        return f"{len(rows)} CSV rows, expected {n_rows}"
    flags = [row[-1] for row in rows]
    if any(f not in ("true", "false") for f in flags):
        return "pass column not true/false"
    false = flags.count("false")
    if rc == 1 and false == 0:
        return "exit 1 but every row passes"
    if rc == 0 and false > (1 - DEFAULT_THRESHOLD) * n_rows:
        return f"exit 0 with {false} failing rows"
    return ""


@dataclass
class VerifyCell:
    name: str
    argv: list
    rows: int

    def __call__(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(self.argv)
        text = out.getvalue()
        return Outcome(checks=self.rows, failed=rc != 0,
                       problem=csv_problem(rc, text, self.rows), output=text)


def _same_arrays(xs, ys):
    return len(xs) == len(ys) and all(
        x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(xs, ys))


def same_params(p, q):
    return p.field == q.field and _same_arrays(
        [*p.w_in, *p.w_hidden, p.w_out, *p.h0],
        [*q.w_in, *q.w_hidden, q.w_out, *q.h0])


def same_graph(g, h):
    return (g.nodes.keys() == h.nodes.keys()
            and all(g.nodes[k].field == h.nodes[k].field for k in g.nodes)
            and _same_arrays([g.nodes[k].data for k in sorted(g.nodes)],
                             [h.nodes[k].data for k in sorted(g.nodes)])
            and g.edges == h.edges and g.open_legs == h.open_legs)


def abs_forward(p, symbols):
    """Forward pass with every weight replaced by its absolute value: an
    upper bound on the magnitude of every term the float score sums."""
    states = [np.abs(h.astype(float)) for h in p.h0]
    for s in symbols:
        below = np.eye(p.M)[s - 1]
        for l in range(p.L):
            states[l] = (np.abs(p.w_hidden[l].astype(float)) @ states[l]) * \
                (np.abs(p.w_in[l].astype(float)) @ below)
            below = states[l]
    return float((np.abs(p.w_out.astype(float)) @ states[-1])[0])


@dataclass
class TnCheck:
    """Codec round trips, then contraction checked against forward_deep."""

    name: str
    params: object
    T: int
    symbols: tuple
    enc: object
    scale: float

    def __call__(self):
        p = self.params
        q = network.parse_params(network.dump_params(p))
        if not same_params(p, q):
            return Outcome(1, True, "parse_params(dump_params(p)) != p")
        g = tn.build_deep_tn(q, self.T)
        h = tn.parse_graph(tn.dump_graph(g))
        if not same_graph(g, h):
            return Outcome(1, True, "parse_graph(dump_graph(g)) != g")
        got = tn.contract(tn.attach_inputs(h, self.enc, self.symbols))
        got = got.data.reshape(-1)[0]
        want = network.forward_deep(p, RAC_PRODUCT, self.enc, self.symbols)[0]
        if p.field == EXACT:
            ok = got == want
        else:
            ok = abs(got - want) <= FLOAT_REL_TOL * self.scale
        if not ok:
            return Outcome(1, True, f"contract {got!r} != forward_deep {want!r}")
        return Outcome(1, False)


@dataclass
class CutCheck:
    """Brute-force min-cut of an MPS chain against min{R, M^(T/2)}."""

    name: str
    params: object
    T: int

    def __call__(self):
        p = self.params
        cut, _ = tn.min_cut(tn.build_mps(p, self.T))
        want = min(p.R, p.M ** (self.T // 2))
        if cut != want:
            return Outcome(1, True, f"min_cut {cut} != {want}")
        return Outcome(1, False)


def _verify(suite, seed, M, R, T, trials, rows, L=None, field=None):
    argv = ["verify", suite, "--M", str(M), "--R", str(R), "--T", str(T),
            "--trials", str(trials), "--seed", str(seed)]
    name = f"{suite} M={M} R={R} T={T}"
    if L is not None:
        argv += ["--L", str(L)]
        name += f" L={L}"
    if field is not None:
        argv += ["--field", field]
    return VerifyCell(name, argv, rows)


def shallow_exact(seed, reduced=False):
    cells = SHALLOW_CELLS[:1] if reduced else SHALLOW_CELLS
    trials = 2 if reduced else SHALLOW_TRIALS
    return [_verify("shallow", seed, M, R, T, trials, trials, field=EXACT)
            for M, R, T in cells]


def deep_grid(seed, reduced=False):
    deep = DEEP_CELLS[:1] if reduced else DEEP_CELLS
    conj = CONJECTURE_CELLS[:1] if reduced else CONJECTURE_CELLS
    dt = 2 if reduced else DEEP_TRIALS
    ct = 2 if reduced else CONJECTURE_TRIALS
    return ([_verify("deep", seed, M, R, T, dt, dt + 1) for M, R, T in deep]
            + [_verify("conjecture", seed, M, R, T, ct, ct, L=L)
               for M, R, T, L in conj])


def _rng(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def tn_contract(seed, reduced=False):
    cells = TN_CELLS[:1] if reduced else TN_CELLS
    chains = [(2, 2, 8)] if reduced else CUT_CHAINS
    ops = []
    for i, (M, R, T, L) in enumerate(cells):
        for j, fld in enumerate((EXACT, FLOAT)):
            rng = _rng(seed, i, j)
            p = draw_params(rng, M, R, L=L, field=fld)
            symbols = tuple(int(s) for s in rng.integers(1, M + 1, T))
            ops.append(TnCheck(f"tn {fld} M={M} R={R} T={T} L={L}", p, T,
                               symbols, TemplateEncoder.identity(M, fld),
                               abs_forward(p, symbols)))
    for k, (M, R, T) in enumerate(chains):
        p = draw_params(_rng(seed, len(cells) + k), M, R, L=1, field=EXACT)
        ops.append(CutCheck(f"min_cut M={M} R={R} T={T}", p, T))
    return ops


WORKLOADS = {
    "shallow-exact": shallow_exact,
    "deep-grid": deep_grid,
    "tn-contract": tn_contract,
}


def build(name, seed, reduced=False):
    """The operations of one workload: its inputs, generated from seed."""
    return WORKLOADS[name](seed, reduced)
