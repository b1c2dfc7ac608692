"""Smoke test of the benchmark at a tiny size.

    python3 bench/test_smoke.py        (or: python3 -m pytest bench/test_smoke.py)

Runs bench/run.py --tiny on every workload, plain and traced, and checks
that every metric named in BENCHMARK.json prints with its unit, that the
correctness gate passes, that the work counters repeat for a seed, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload: str, seed: int, trace: int) -> dict:
    path = BENCH / "out" / f"{workload}-seed{seed}-tiny-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


class SmokeTest(unittest.TestCase):
    def check_result(self, result: dict, kind: str) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if kind == "end_to_end":
                self.assertGreater(m["value"], 0, name)

    def test_end_to_end_metrics_and_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(result_of(run_bench(workload, SEED, 0)), "end_to_end")
                first = record_of(workload, SEED, 0)
                self.check_result(result_of(run_bench(workload, SEED, 0)), "end_to_end")
                second = record_of(workload, SEED, 0)
                self.assertTrue(first["counters_repeat"])
                self.assertEqual(first["counters"], second["counters"])
                self.assertEqual(first["heldout"]["failed"], 0)
                self.assertGreater(first["heldout"]["ops"], 0)

    def test_traced_run_reports_every_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run_bench(workload, SEED, 1))
                self.check_result(result, "per_layer")
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                wall = metrics["trace.wall_s"]
                self.assertGreater(metrics["trace.self_sum_s"], 0.9 * wall)
                self.assertLessEqual(metrics["trace.self_sum_s"], wall)
                setup_wall = metrics["setup.trace.wall_s"]
                self.assertGreater(metrics["setup.trace.self_sum_s"], 0.9 * setup_wall)
                self.assertLessEqual(metrics["setup.trace.self_sum_s"], setup_wall)
                if workload == "sweep":
                    self.assertEqual(metrics["setup.kripke.enumerate_models.calls"], 4)
                    self.assertEqual(metrics["setup.kripke.models"], 584 + 4024 + 6136 + 6136 + 4 * 2)

    def test_sweep_counts_match_acceptance(self):
        result_of(run_bench("sweep", SEED, 0))
        record = record_of("sweep", SEED, 0)
        self.assertEqual(record["counters"]["enumerated_models"], [584, 4024, 6136, 6136])
        self.assertTrue(record["acceptance_counts_match"])

    def test_refuses_to_run_without_program_sources(self):
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("stages", SEED, 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
