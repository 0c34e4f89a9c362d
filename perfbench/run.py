"""racsep benchmark: three fixed workloads through racsep's public API.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload deep-grid --seed 7 --seconds 40 --trace 0

Print every end-to-end metric of every workload, then do the traced runs
and print the per-layer metrics and the tracing overhead:

    python3 perfbench/run.py --report [--seed 7] [--seconds 40]

Self-test of the harness at tiny sizes: ``python3 perfbench/selftest.py``.

A run repeats passes over the workload's operations, single-threaded, until
``--seconds`` is used up (at least two passes).  Every pass checks every
output; a failed check is counted, never fatal.  ``attempted`` is the number
of operations and ``failed`` the number that failed in any pass, so both
depend only on the seed, not on how many passes fit.  ``sweep_s`` is the sum
over operations of each operation's median time across passes; ``setup_s``
is the median over fresh interpreters that import racsep and generate the
inputs.

Other tenants of a shared host slow this CPU by up to 2x for seconds at a
time.  So the run pins itself to one CPU, next to probe.py, which times a
fixed unit of work every PROBE_PERIOD_S seconds, and every measured interval
is scaled to the reference speed (PROBE_REF_S per unit) by the probe units
sampled within it, raised to the workload's LOAD_EXPONENT (its sensitivity
to host load relative to the probe unit).  The unadjusted wall times and the
host's mean slowdown are printed and kept in the result file.

With ``--trace 1`` the passes alternate untraced and traced; the traced ones
give the per-layer metrics (medians over traced passes; self times are not
adjusted) and the difference of the two adjusted sweeps is the tracing
overhead.  Spans and a result file with the run's metadata go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_PASSES = 2
PROBE_PERIOD_S = 0.1
# the reference speed that times are adjusted to: the fastest probe unit
# seen on the 2-vCPU, 2 GHz Xeon host the benchmark was tuned on
PROBE_REF_S = 2.2e-3

WORKLOADS = ("shallow-exact", "deep-grid", "tn-contract")

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TRACE_UNITS = {
    "trace.untraced_sweep_s": "s",
    "trace.traced_sweep_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(Exception):
    """The benchmark cannot run here (no racsep in src/, or no probe samples)."""


def import_racsep():
    """Import racsep from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import racsep
    except ImportError as e:
        raise HarnessError(f"cannot import racsep from {src}: {e}") from None
    origin = Path(racsep.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise HarnessError(f"racsep imported from {origin}, not from {src}")
    return racsep


def median_sum(times_by_pass):
    """Sum over operations of each operation's median time across passes
    (the last pass may have stopped early)."""
    return sum(statistics.median(t[i] for t in times_by_pass if len(t) > i)
               for i in range(len(times_by_pass[0])))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class HostProbe:
    """Samples how fast this process's CPU runs while the benchmark measures.

    Pins this process to one CPU and runs probe.py pinned to the same CPU.
    ``adjust(a, b, exponent)`` scales the wall time of the interval [a, b]
    by PROBE_REF_S over the mean probe unit time sampled in it, to the power
    ``exponent``: the interval's time at the reference speed, with other
    tenants' load taken out.
    """

    def __enter__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(cpu),
             str(PROBE_PERIOD_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self._proc.communicate(timeout=60)  # closing stdin stops it
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        samples = [tuple(map(float, line.split())) for line in out.splitlines()]
        if not samples:
            raise HarnessError("host probe returned no samples")
        self.starts = [t for t, _ in samples]
        self.units = [u for _, u in samples]

    def adjust(self, a, b, exponent=1.0):
        i, j = bisect_left(self.starts, a), bisect_right(self.starts, b)
        if i == j:  # no sample inside: take the nearest one
            i = min((k for k in (i - 1, i) if 0 <= k < len(self.starts)),
                    key=lambda k: abs(self.starts[k] - (a + b) / 2))
            j = i + 1
        return (b - a) * (PROBE_REF_S / statistics.fmean(self.units[i:j])) \
            ** exponent

    @property
    def slowdown(self):
        """Mean probe unit time over the reference: the host's load."""
        return statistics.fmean(self.units) / PROBE_REF_S


def measure_setup(workload, seed, samples):
    """Intervals of fresh interpreters that import racsep and build inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    intervals = []
    for _ in range(samples):
        t0 = monotonic()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        intervals.append((t0, monotonic()))
    return intervals


class Run:
    """Repeated passes over one workload's operations, with output checks."""

    def __init__(self, ops):
        self.ops = ops
        self.last = [0.0] * len(ops)  # latest wall time of each operation
        self.outputs = {}  # op index -> output text of the first pass
        self.passes = 0
        self.failed_ops = set()  # indices of ops that failed in any pass
        self.problems = []  # (pass, op name, problem)
        self.checks_per_pass = None

    def one_pass(self, stop_at=None):
        """Run the operations once, in order; returns their (start, end).

        With ``stop_at`` (a monotonic reading) the pass ends before the
        first operation whose latest time would carry it past ``stop_at``.
        """
        from workloads import Outcome
        intervals, checks = [], 0
        gc.collect()
        for i, op in enumerate(self.ops):
            t0 = monotonic()
            if stop_at is not None and t0 + self.last[i] > stop_at:
                break
            try:
                out = op()
            except Exception as e:  # counted as a failed op, never fatal
                out = Outcome(0, True, f"{type(e).__name__}: {e}")
            intervals.append((t0, monotonic()))
            self.last[i] = intervals[-1][1] - t0
            if out.output and self.outputs.setdefault(i, out.output) != out.output:
                out.problem = out.problem or "output differs from first pass"
            if out.failed or out.problem:
                self.failed_ops.add(i)
            if out.problem:
                self.problems.append((self.passes, op.name, out.problem))
            checks += out.checks
        self.passes += 1
        if self.checks_per_pass is None:
            self.checks_per_pass = checks
        return intervals

    @property
    def attempted(self):
        """Operations run: each counts once, however many passes repeat it,
        so the count depends on the seed and not on the host's speed."""
        return len(self.ops) if self.passes else 0

    @property
    def failed(self):
        """Operations that failed in at least one pass."""
        return len(self.failed_ops)


def run_workload(name, seed, seconds, trace, reduced=False,
                 setup_samples=SETUP_SAMPLES):
    """Run one workload; returns the result, spread, metadata and spans.

    Untraced: MIN_PASSES whole passes, then more passes until the next
    operation would overrun ``seconds``.  Traced: whole passes alternating
    untraced and traced (at least one of each) while the next one fits.
    """
    import numpy as np

    import workloads
    from tracer import Tracer, layer_metric_units, layer_metrics

    ops = workloads.build(name, seed, reduced)
    run = Run(ops)
    tracer = Tracer()
    passes = {"untraced": [], "traced": []}
    layer_passes, span_passes = [], []
    with HostProbe() as probe:
        setup = [] if trace else measure_setup(name, seed, setup_samples)
        stop_at = monotonic() + seconds
        while run.passes < MIN_PASSES or (
                trace and monotonic() + sum(run.last) <= stop_at):
            if not (trace and run.passes % 2):
                passes["untraced"].append(run.one_pass())
                continue
            tracer.install()
            try:
                passes["traced"].append(run.one_pass())
            finally:
                tracer.uninstall()
            spans, errors, counts = tracer.reset()
            layer_passes.append(layer_metrics(spans, errors, counts))
            span_passes.append(spans)
        while not trace:
            partial = run.one_pass(stop_at)
            if partial:
                passes["untraced"].append(partial)
            if len(partial) < len(ops):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wall = {k: [[b - a for a, b in p] for p in v] for k, v in passes.items()}
    exponent = workloads.LOAD_EXPONENT[name]
    adjusted = {k: [[probe.adjust(a, b, exponent) for a, b in p] for p in v]
                for k, v in passes.items()}
    whole = [t for t in adjusted["untraced"] if len(t) == len(ops)]
    sweep = median_sum(adjusted["untraced"])
    spread = {"sweep_s": [sum(t) for t in whole]}
    if trace:
        traced_sweep = median_sum(adjusted["traced"])
        units = layer_metric_units()
        values = {k: statistics.median(p[k] for p in layer_passes)
                  for k in units}
        values.update({"trace.untraced_sweep_s": sweep,
                       "trace.traced_sweep_s": traced_sweep,
                       "trace.overhead_s": traced_sweep - sweep})
        units.update(TRACE_UNITS)
        spread = {"trace.untraced_sweep_s": spread["sweep_s"],
                  "trace.traced_sweep_s": [sum(t) for t in adjusted["traced"]]}
    else:
        spread["setup_s"] = [probe.adjust(a, b) for a, b in setup]
        units = END_TO_END
        values = {
            "setup_s": statistics.median(spread["setup_s"]),
            "sweep_s": sweep,
            "checks_per_s": run.checks_per_pass / sweep,
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    raw = {"sweep_s": median_sum(wall["untraced"]),
           "setup_s": [b - a for a, b in setup],
           "host_slowdown": probe.slowdown}
    return {"result": result, "spread": spread, "wall": raw,
            "meta": metadata(name, seed, seconds, trace, ops, np.__version__),
            "fail_frac": run.failed / run.attempted, "problems": run.problems,
            "op_wall_s": wall, "spans": span_passes}


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "racsep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(name, seed, seconds, trace, ops, numpy_version):
    from workloads import LOAD_EXPONENT, WHY
    return {
        "workload": name, "why": WHY[name], "seed": seed, "seconds": seconds,
        "probe_ref_s": PROBE_REF_S, "load_exponent": LOAD_EXPONENT[name],
        "trace": trace, "cells": [op.name for op in ops],
        "git_sha": git_sha(), "racsep_source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(), "time_utc":
            time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_outputs(name, seed, trace, out):
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    record = {k: v for k, v in out.items() if k != "spans"}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if out["spans"]:
        with gzip.open(OUT / f"{stem}-spans.csv.gz", "wt", newline="",
                       compresslevel=1) as fh:
            w = csv.writer(fh)
            w.writerow(["pass", "name", "start", "end", "parent"])
            for k, spans in enumerate(out["spans"]):
                w.writerows([k, *span] for span in spans)


def print_run(out):
    meta, res = out["meta"], out["result"]
    print("meta " + json.dumps(meta))
    for key, m in res["metrics"].items():
        line = f"{meta['workload']:>13} {key:<44} {m['value']:>14.6g} {m['unit']}"
        vals = out["spread"].get(key)
        if vals:
            q1, q2, q3 = quartiles(vals)
            line += (f"   [n={len(vals)} min={min(vals):.4g} q1={q1:.4g} "
                     f"med={q2:.4g} q3={q3:.4g} max={max(vals):.4g}]")
        print(line)
    wall = out["wall"]
    print(f"{meta['workload']:>13} {'fail_frac':<44} {out['fail_frac']:>14.6g} "
          f"ratio   [{res['failed']} of {res['attempted']} operations]")
    print(f"{meta['workload']:>13} {'unadjusted wall sweep_s':<44} "
          f"{wall['sweep_s']:>14.6g} s   [host slowdown "
          f"{wall['host_slowdown']:.3f}x the reference speed]")
    for k, op, problem in out["problems"]:
        print(f"{meta['workload']:>13} problem in pass {k}, {op}: {problem}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import racsep, generate the inputs and exit")
    ap.add_argument("--report", action="store_true",
                    help="run every workload untraced, then traced")
    args = ap.parse_args(argv)
    if not args.report and args.workload is None:
        ap.error("--workload is required without --report")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.report:
        from report import report
        return report(args.seed, args.seconds)
    try:
        import_racsep()
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.setup_only:
        import workloads
        workloads.build(args.workload, args.seed)
        return 0
    out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    write_outputs(args.workload, args.seed, args.trace, out)
    print_run(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
