"""Self-test of the benchmark harness, at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload emits each metric that applies to it, with the
unit BENCHMARK.json declares, in both plain and traced runs; that the
traced run's call totals match what the workload requested; and that the
Monte Carlo reference check trips when its oracle moves by 10 standard
errors.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

SPEC = run._spec()
MC = ("mc-diffusion", "mc-jump")


def _bench(workload: str, trace: int, seconds: float = 1.0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((HERE / "out" / f"{workload}-seed7-trace{trace}" / "result.json").read_text())
    return last, result


class HarnessTest(unittest.TestCase):
    def test_benchmark_json_names_the_workloads(self):
        import workloads

        self.assertEqual(SPEC["workloads"], workloads.WORKLOADS)

    def test_every_metric_emitted_with_its_unit(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload):
                # verify-suite needs 100 ops before it reports a 90th percentile
                last, result = _bench(workload, 0, 2.0 if workload == "verify-suite" else 0.5)
                self.assertTrue(last["correct"])
                self.assertEqual(last["failed"], 0)
                self.assertGreaterEqual(last["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in last["metrics"].items()}, SPEC["end_to_end"])
                for value in last["metrics"].values():
                    self.assertGreater(value["value"], 0)
                shown = result["end_to_end"]
                expected = {"setup_s", "op_s.p50", "op_s.class_min", "time_to_rse_1e-3_s", "peak_rss_mb", "fail_rate"}
                if workload in MC:
                    expected.add("paths_per_s")
                if shown["op_s.p50"][2] >= 100:  # ten samples beyond the 90th percentile
                    expected.add("op_s.p90")
                self.assertEqual(set(shown), expected)
                if workload == "verify-suite":
                    self.assertIn("op_s.p90", shown)
                self.assertEqual(shown["fail_rate"][0], 0)

    def test_traced_run_reports_every_layer(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload):
                last, result = _bench(workload, 1, 0.5)
                self.assertTrue(last["correct"])
                self.assertEqual({k: v["unit"] for k, v in last["metrics"].items()}, SPEC["per_layer"])
                layer = {k: v["value"] for k, v in last["metrics"].items()}
                self.assertGreater(layer["trace.overhead_ratio"], 0)
                self.assertTrue((ROOT / result["trace_file"]).is_file())
                if workload in MC:
                    self.assertEqual(layer["processes.path_rng.calls"], result["ops"][0]["n_paths"])
                    self.assertEqual(layer["montecarlo.estimate_duality_side.calls"], 1)
                if workload == "mc-jump":
                    self.assertEqual(layer["processes.generator_matrix.states"], 91)
                    self.assertGreater(layer["processes.generator_cache.hit_ratio"], 0.9)
                if workload == "exact-oracle":
                    self.assertEqual(layer["exact.matrix_exponential_apply.calls"], 2)
                if workload == "verify-suite":
                    self.assertGreater(layer["cli.main.self_s"], 0)
                    self.assertEqual(layer["reporting.write_report.calls"], 1)

    def test_reference_check_trips_on_a_10_se_oracle(self):
        import workloads

        out = HERE / "out" / "selftest"
        for workload in MC:
            for op in next(workloads.ROUNDS[workload](7, out, True)):
                with self.subTest(workload=workload, op=op.label):
                    result = op.run()
                    self.assertIsNone(op.check(result))
                    mean, se = op.outcome["mean"], op.outcome["se"]
                    away = 1.0 if op.reference["oracle"] >= mean else -1.0
                    op.reference["oracle"] += away * 10.0 * se
                    self.assertIsNotNone(op.check(result))
                    # the statistical test alone, with the program agreeing on the moved oracle
                    verdict = workloads.mc_verdict(op, mean, se, op.reference["oracle"])
                    self.assertIn("SE", verdict or "")


if __name__ == "__main__":
    unittest.main()
