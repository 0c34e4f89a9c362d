"""One command for every metric: each workload untraced, then traced.

Runs every workload as its own process (one at a time, workloads in turn),
prints the end-to-end metrics per workload with units, then the per-layer
metrics of the traced runs, the largest self-time shares and the tracing
overhead.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import OUT, ROOT, WORKLOADS


def _run(workload, seed, seconds, trace):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((OUT / f"{stem}.json").read_text())


def _table(title, rows):
    print(f"\n{title}")
    head = ["metric", "unit", *WORKLOADS]
    width = max(len(r[0]) for r in rows)
    print(f"{head[0]:<{width}}  {head[1]:<6}" +
          "".join(f"{h:>16}" for h in head[2:]))
    for name, unit, *vals in rows:
        cells = "".join(f"{v:>16.6g}" if isinstance(v, float) else f"{v!s:>16}"
                        for v in vals)
        print(f"{name:<{width}}  {unit:<6}{cells}")


def report(seed, seconds):
    plain = {w: _run(w, seed, seconds, 0) for w in WORKLOADS}
    first = plain[WORKLOADS[0]]["result"]["metrics"]
    rows = [(k, m["unit"], *(float(plain[w]["result"]["metrics"][k]["value"])
                             for w in WORKLOADS)) for k, m in first.items()]
    rows.append(("fail_frac", "ratio",
                 *(float(plain[w]["fail_frac"]) for w in WORKLOADS)))
    rows.append(("unadjusted wall sweep_s", "s",
                 *(float(plain[w]["wall"]["sweep_s"]) for w in WORKLOADS)))
    rows.append(("host slowdown", "x",
                 *(float(plain[w]["wall"]["host_slowdown"]) for w in WORKLOADS)))
    rows.append(("correct", "-",
                 *(plain[w]["result"]["correct"] for w in WORKLOADS)))
    _table(f"end-to-end metrics, tracing off (seed {seed}, {seconds} s a run; "
           "times adjusted to the reference host speed)", rows)
    for w in WORKLOADS:
        for k, op, problem in plain[w]["problems"]:
            print(f"{w}: pass {k}, {op}: {problem}")

    traced = {w: _run(w, seed, seconds, 1) for w in WORKLOADS}
    first = traced[WORKLOADS[0]]["result"]["metrics"]
    rows = [(k, m["unit"], *(float(traced[w]["result"]["metrics"][k]["value"])
                             for w in WORKLOADS)) for k, m in first.items()]
    _table("per-layer metrics, traced run (medians over traced passes; "
           "tn.min_cut.bipartitions is computed as 2^nodes)", rows)

    print("\nlargest self-time shares of the traced time inside racsep")
    for w in WORKLOADS:
        metrics = traced[w]["result"]["metrics"]
        fns = {k[:-len(".self_s")]: m["value"] for k, m in metrics.items()
               if k.endswith(".self_s") and k.count(".") == 2}
        total = sum(fns.values())
        top = sorted(fns.items(), key=lambda kv: -kv[1])[:6]
        print(f"  {w} (total {total:.3f} s): " + ", ".join(
            f"{name} {v / total:.1%}" for name, v in top))
        over = metrics["trace.overhead_s"]["value"]
        base = metrics["trace.untraced_sweep_s"]["value"]
        print(f"  {w} tracing overhead: {over:+.3f} s on an untraced sweep "
              f"of {base:.3f} s ({over / base:+.1%})")
    return 0
