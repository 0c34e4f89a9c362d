"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from unittest import mock

from run import (END_TO_END, PROBE_PERIOD_S, PROBE_REF_S, ROOT, TRACE_UNITS,
                 WORKLOADS, HostProbe, Run, import_racsep, run_workload)

import_racsep()

import numpy as np  # noqa: E402

import racsep  # noqa: E402
import workloads  # noqa: E402
from racsep import network, ranks, tn  # noqa: E402
from tracer import FUNCTIONS, Tracer, layer_metric_units, layer_metrics, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def racsep_attributes():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "racsep" or name.startswith("racsep.")
            for attr, value in vars(module).items()}


class TracerTest(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        before = racsep_attributes()
        tracer = Tracer()
        tracer.install()
        try:
            patched = {(m.__name__, attr) for m, attr, _ in tracer.patched}
            # the defining module, importers by name, and the package
            for key in [("racsep.ranks", "rank_exact"),
                        ("racsep.verification", "rank_exact"),
                        ("racsep", "rank_exact"),
                        ("racsep.builders", "step_deep")]:
                self.assertIn(key, patched)
                self.assertIsNot(getattr(sys.modules[key[0]], key[1]),
                                 before[key])
            wanted = {f"racsep.{layer}.{fn}" for layer, fns in FUNCTIONS.items()
                      for fn in fns}
            self.assertEqual(wanted, {f"{m}.{a}" for m, a in patched
                                      if m != "racsep" and f"{m}.{a}" in wanted})
        finally:
            tracer.uninstall()
        after = racsep_attributes()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_self_time_of_a_synthetic_nest(self):
        spans = [["cli.main", 0.0, 10.0, -1],
                 ["verification.draw_params", 1.0, 4.0, 0],
                 ["builders.build_grid_tensor", 5.0, 9.0, 0],
                 ["network.step_deep", 6.0, 7.0, 2],
                 ["network.step_deep", 7.5, 8.0, 2],
                 ["ranks.rank_exact", 11.0, 12.5, -1]]
        self.assertEqual(self_times(spans), [3.0, 3.0, 2.5, 1.0, 0.5, 1.5])
        values = layer_metrics(spans, {"ranks.rank_exact": 2},
                               {"ranks.rank_exact.entries": 9})
        self.assertEqual(values["network.step_deep.calls"], 2)
        self.assertEqual(values["network.step_deep.self_s"], 1.5)
        self.assertEqual(values["network.self_s"], 1.5)
        self.assertEqual(values["cli.self_s"], 3.0)
        self.assertEqual(values["ranks.rank_exact.errors"], 2)
        self.assertEqual(values["ranks.rank_exact.entries"], 9)
        self.assertEqual(values["tn.contract.calls"], 0)

    def test_spans_nest_and_errors_count(self):
        rng = np.random.default_rng(0)
        p = racsep.draw_params(rng, 2, 2, L=2, field="float")
        enc = racsep.TemplateEncoder.identity(2, "float")
        tracer = Tracer()
        tracer.install()
        try:
            network.forward_deep(p, network.RAC_PRODUCT, enc, (1, 2, 1))
            with self.assertRaises(racsep.ParameterError):
                network.neutral_h0(np.zeros((2, 2)))
            ranks.rank_numeric(np.zeros((2, 3)))
        finally:
            tracer.uninstall()
        spans, errors, counts = tracer.reset()
        names = [s[0] for s in spans]
        self.assertEqual(names[:4], ["network.forward_deep"] +
                         ["network.step_deep"] * 3)
        self.assertEqual([s[3] for s in spans[1:4]], [0, 0, 0])
        self.assertEqual(errors["network.neutral_h0"], 1)
        self.assertEqual(counts["ranks.rank_numeric.zero_rank"], 1)
        self.assertEqual(counts["ranks.rank_numeric.entries"], 6)


class HostProbeTest(unittest.TestCase):
    def test_adjust_scales_by_the_sampled_speed(self):
        probe = HostProbe()
        probe.starts = [0.0, 1.0, 2.0, 3.0]
        probe.units = [PROBE_REF_S, 2 * PROBE_REF_S, 4 * PROBE_REF_S,
                       PROBE_REF_S]
        self.assertAlmostEqual(probe.adjust(0.5, 2.5), 2 / 3)  # mean unit 3x
        self.assertAlmostEqual(probe.adjust(2.9, 2.95), 0.05)  # nearest: 3.0
        self.assertAlmostEqual(probe.adjust(1.9, 1.95), 0.0125)  # nearest: 2.0
        self.assertAlmostEqual(probe.adjust(0.5, 2.5, 2.0), 2 / 9)
        self.assertAlmostEqual(probe.slowdown, 2.0)

    def test_probe_samples_and_stops(self):
        with HostProbe() as probe:
            time.sleep(3 * PROBE_PERIOD_S)
        self.assertIsNotNone(probe._proc.poll())
        self.assertGreaterEqual(len(probe.units), 2)
        self.assertTrue(all(u > 0 for u in probe.units))


class WorkloadTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
                         {**layer_metric_units(), **TRACE_UNITS})
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         list(WORKLOADS))
        self.assertEqual(list(workloads.WORKLOADS), list(WORKLOADS))

    def test_reduced_pass_emits_every_metric(self):
        for name in WORKLOADS:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    out = run_workload(name, 7, 0, trace, reduced=True,
                                       setup_samples=1)
                    res = out["result"]
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"], out["problems"])
                    self.assertEqual(res["attempted"],
                                     len(workloads.build(name, 7, reduced=True)))
                    self.assertEqual(list(res["metrics"]),
                                     [m["name"] for m in BENCHMARK[listed]])
                    json.dumps(res)

    def test_output_that_changes_between_passes_is_a_problem(self):
        class Changing:
            name = "changing"
            outputs = iter(["a,b\n", "a,b\n", "a,c\n"])

            def __call__(self):
                return workloads.Outcome(1, False, output=next(self.outputs))

        run = Run([Changing()])
        for _ in range(3):
            run.one_pass()
        self.assertEqual((run.attempted, run.failed), (1, 1))
        self.assertEqual(run.problems,
                         [(2, "changing", "output differs from first pass")])

    def test_output_checks_catch_wrong_results(self):
        self.assertEqual(workloads.csv_problem(0, "", 1), "missing CSV header")
        header = ",".join(workloads.CSV_COLUMNS)
        row = "shallow,2,1,4,1,exact,7.0,1,1,"
        self.assertEqual(workloads.csv_problem(1, f"{header}\n{row}true\n", 1),
                         "exit 1 but every row passes")
        self.assertEqual(workloads.csv_problem(0, f"{header}\n{row}false\n", 1),
                         "exit 0 with 1 failing rows")
        self.assertEqual(workloads.csv_problem(1, f"{header}\n{row}false\n", 1), "")
        tn_check, *_, cut_check = workloads.tn_contract(7, reduced=True)
        self.assertEqual((tn_check().problem, cut_check().problem), ("", ""))
        contract = tn.contract
        with mock.patch.object(tn, "contract",
                               lambda g: racsep.DenseTensor(contract(g).data + 1)):
            self.assertTrue(tn_check().problem.startswith("contract"))
        with mock.patch.object(tn, "min_cut", lambda g: (99, ())):
            self.assertTrue(cut_check().problem.startswith("min_cut 99"))


if __name__ == "__main__":
    unittest.main()
