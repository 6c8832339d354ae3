"""Self-tests of the benchmark (kept out of the package's pytest suite).

    python3 perfbench/selftest.py

- Smoke: every workload at a tiny size, untraced and traced, reports exactly
  the metrics BENCHMARK.json names, with their units, plus provenance, and the
  code in this checkout passes every output check.
- A corrupted reference value is reported as a failure, for each workload.
- Self time subtracts the union of child spans, and a worker thread's span
  hangs under the span the main thread has open.
- A wrapped name the package no longer defines is reported as absent.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import threading
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = run.load_package()
REFS = workloads.load_refs()
SEED = workloads.DEFAULT_SEED


def tiny_run(name, trace, refs=REFS, modules=MODULES):
    return run.run_workload(modules, name, SEED, 0.0, trace, refs, tiny=True, setup_repeats=1)


class SmokeTest(unittest.TestCase):
    def test_every_workload_reports_every_named_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {metric["name"]: metric["unit"] for metric in spec[section]}
            for name in workloads.NAMES:
                with self.subTest(workload=name, trace=trace):
                    doc = tiny_run(name, trace)
                    self.assertEqual({k: v["unit"] for k, v in doc["metrics"].items()}, want)
                    for metric in doc["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))
                    self.assertEqual(doc["failed_ratio"], 0.0, doc["log"])
                    self.assertTrue(doc["correct"])
                    prov = doc["provenance"]
                    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit",
                                "source_sha256", "seed", "traced"):
                        self.assertIn(key, prov)
                    self.assertEqual(prov["traced"], bool(trace))


class CorruptedReferenceTest(unittest.TestCase):
    """Each reference check passes on the true reference and fails on a bent one."""

    def _check(self, name, pick, corrupt):
        inv = next(i for i in workloads.build(name, SEED, REFS) if pick(i.argv))
        result = run.invoke(MODULES["cli"], inv.argv)
        self.assertEqual(result["rc"], 0, result["stderr"])
        self.assertEqual(inv.check(result["stdout"]), [])
        bent = copy.deepcopy(REFS)
        corrupt(bent, inv.key)
        bent_inv = next(i for i in workloads.build(name, SEED, bent) if i.key == inv.key)
        self.assertNotEqual(bent_inv.check(result["stdout"]), [])

    def test_figure_cell(self):
        def corrupt(refs, key):
            lines = refs["figures"][6].splitlines(keepends=True)
            cells = lines[10].split(",")
            cells[-1] = repr(float(cells[-1]) + 2e-6) + "\n"
            lines[10] = ",".join(cells)
            refs["figures"][6] = "".join(lines)

        self._check("figures_cold", lambda argv: argv[-1] == "6", corrupt)

    def test_bound_curve_sample(self):
        def corrupt(refs, key):
            sample = refs["bound_scan"][key]["samples"][3]
            sample[2] = repr(float(sample[2]) + 2e-6)

        self._check("bound_scan", lambda argv: True, corrupt)

    def test_simulate_count(self):
        def corrupt(refs, key):
            row = refs["simulate"][key]
            row["bit_errors"] = str(int(row["bit_errors"]) + 1)

        self._check("simulate", lambda argv: "hamming74" in argv, corrupt)

    def test_oracle_leakage(self):
        def corrupt(refs, key):
            row = refs["oracle"][key]
            row["exact_leak_bits"] = repr(float(row["exact_leak_bits"]) + 2e-9)

        self._check("oracle", lambda argv: argv[2] == "4", corrupt)

    def test_failure_reaches_the_result(self):
        bent = copy.deepcopy(REFS)
        bent["figures"][9] = bent["figures"][9].replace("0.6,1.0,0.01,", "0.6,1.0,0.02,", 1)
        doc = tiny_run("figures_cold", 0, refs=bent)
        self.assertEqual(doc["failed"], 1)
        self.assertFalse(doc["correct"])


class SpanTest(unittest.TestCase):
    def test_self_time_excludes_the_union_of_children(self):
        tracer = Tracer({})
        tracer.spans = [
            (1, "sim.run_reliability", 0.0, 10.0, None, 1),
            (2, "code.toeplitz_apply_batch", 1.0, 5.0, 1, 2),
            (3, "code.toeplitz_apply_batch", 3.0, 7.0, 1, 3),
        ]
        summary = tracer.summary()
        self.assertAlmostEqual(summary["self_s"]["sim.run_reliability"], 4.0)
        self.assertAlmostEqual(summary["self_s"]["code.toeplitz_apply_batch"], 8.0)
        self.assertAlmostEqual(summary["total_s"]["code.toeplitz_apply_batch"], 6.0)
        self.assertAlmostEqual(summary["module_s"]["code"], 6.0)
        self.assertEqual(summary["calls"]["code.toeplitz_apply_batch"], 2)

    def test_worker_thread_span_belongs_to_the_open_main_span(self):
        tracer = Tracer({})
        inner = tracer._span(lambda: None, "code.inner")

        def outer():
            worker = threading.Thread(target=inner)
            worker.start()
            worker.join(timeout=10)
            self.assertFalse(worker.is_alive())

        tracer._span(outer, "sim.outer")()
        parents = {name: (sid, parent) for sid, name, _, _, parent, _ in tracer.spans}
        self.assertEqual(parents["code.inner"][1], parents["sim.outer"][0])


class AbsentNameTest(unittest.TestCase):
    def test_missing_function_is_reported_not_raised(self):
        leakage = MODULES["leakage"]
        stripped = types.ModuleType(leakage.__name__)
        stripped.__dict__.update({k: v for k, v in vars(leakage).items() if k != "e0"})
        doc = tiny_run("bound_scan", 1, modules=dict(MODULES, leakage=stripped))
        self.assertIn("leakage.e0", doc["absent"])
        self.assertEqual(doc["metrics"]["leakage.e0.calls"]["value"], 0)
        self.assertEqual(doc["failed"], 0, doc["log"])


if __name__ == "__main__":
    unittest.main()
