"""In-memory span tracer for racsep's public functions.

``Tracer.install()`` replaces every ``racsep`` / ``racsep.*`` module
attribute bound to a listed function with a wrapper, so call sites that
imported the function by name (``from .ranks import rank_exact``) are traced
too.  ``Tracer.uninstall()`` puts every original object back.

Each call records a span ``[name, start, end, parent]``, where ``parent`` is
the index of the enclosing span in the same list (``-1`` at top level).  Self
time is a span's duration minus the durations of its direct children.  Size
counters (entries, bytes, nodes) are recorded at the same boundary.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# layer (racsep module) -> wrapped public functions
FUNCTIONS = {
    "cli": ("main",),
    "verification": ("verify_shallow_rank_law", "verify_deep_lower_bound",
                     "check_conjecture_bound", "draw_params", "rows_to_csv"),
    "builders": ("build_weights_tensor", "build_grid_tensor"),
    "network": ("step_deep", "neutral_h0", "forward_deep", "dump_params",
                "parse_params"),
    "tensor": ("matricize", "exact_array"),
    "ranks": ("rank_exact", "rank_numeric"),
    "tn": ("build_mps", "build_deep_tn", "attach_inputs", "contract",
           "min_cut", "dump_graph", "parse_graph"),
}


def _matrix_entries(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return int(np.size(getattr(m, "data", m)))


def _result_entries(args, kwargs, result):
    return int(result.tensor.data.size)


def _graph_nodes(args, kwargs, result):
    return len((args[0] if args else kwargs["g"]).nodes)


def _bipartitions(args, kwargs, result):
    # computed, not observed: min_cut enumerates 2^nodes bipartitions
    return 2 ** _graph_nodes(args, kwargs, result)


def _text_out(args, kwargs, result):
    return len(result.encode())


def _text_in(args, kwargs, result):
    return len((args[0] if args else kwargs["text"]).encode())


def _zero_rank(args, kwargs, result):
    return int(result.rank == 0)


# "<layer>.<fn>" -> ((counter suffix, sizer), ...), evaluated on success
COUNTERS = {
    "builders.build_weights_tensor": (("entries", _result_entries),),
    "builders.build_grid_tensor": (("entries", _result_entries),),
    "ranks.rank_exact": (("entries", _matrix_entries),),
    "ranks.rank_numeric": (("entries", _matrix_entries),
                           ("zero_rank", _zero_rank)),
    "tn.contract": (("nodes", _graph_nodes),),
    "tn.min_cut": (("bipartitions", _bipartitions),),
    "network.dump_params": (("bytes", _text_out),),
    "network.parse_params": (("bytes", _text_in),),
    "tn.dump_graph": (("bytes", _text_out),),
    "tn.parse_graph": (("bytes", _text_in),),
}

def layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in (f"{layer}.{fn}" for layer, fns in FUNCTIONS.items()
                 for fn in fns):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
        for suffix, _ in COUNTERS.get(name, ()):
            units[f"{name}.{suffix}"] = "bytes" if suffix == "bytes" else "count"
    for layer in FUNCTIONS:
        units[f"{layer}.self_s"] = "s"
    return units


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, errors, counts):
    """Per-layer metric values for one traced pass (all names present)."""
    values = dict.fromkeys(layer_metric_units(), 0)
    for (name, *_), own in zip(spans, self_times(spans)):
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += own
        values[f"{name.split('.')[0]}.self_s"] += own
    for name, n in errors.items():
        values[f"{name}.errors"] += n
    for key, n in counts.items():
        values[key] += n
    return values


class Tracer:
    """Wraps the listed functions of the imported racsep modules."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def reset(self):
        """Start a new recording; returns the previous (spans, errors, counts)."""
        taken = self.spans, self.errors, self.counts
        self.spans, self.errors, self.counts = [], defaultdict(int), defaultdict(int)
        return taken

    def _wrap(self, name, fn):
        stack = self._stack
        counters = COUNTERS.get(name, ())

        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            for suffix, sizer in counters:
                self.counts[f"{name}.{suffix}"] += sizer(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, fns in FUNCTIONS.items():
            module = sys.modules[f"racsep.{layer}"]
            for fn in fns:
                original = getattr(module, fn)
                wrappers[id(original)] = (original,
                                          self._wrap(f"{layer}.{fn}", original))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "racsep" or n.startswith("racsep.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    @property
    def patched(self):
        return list(self._patched)
