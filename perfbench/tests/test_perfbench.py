"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench/tests -v

They build perfbench through run.py (like the benchmark itself) and run
each workload briefly.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed=1, seconds=1, trace="0", *extra, root=ROOT):
    command = [sys.executable, str(root / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", trace, *extra]
    return subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def note(lines, key):
    """Value of a '# <key> <value> ...' line."""
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "#" and parts[1] == key:
            return parts[2]
    raise AssertionError(f"no '# {key}' line in output")


class MetricsTest(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for metric in expected:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed["value"], (int, float))

    def test_every_end_to_end_metric_printed_with_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = result_of(run(workload))
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(float(note(lines, "error_frac")), 0.0)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(
                        result["metrics"][metric["name"]]["value"], 0.0,
                        metric["name"])

    def test_every_per_layer_metric_printed_with_unit(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = result_of(run(workload, trace="1"))
                self.check_metrics(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])


class InputsTest(unittest.TestCase):
    def test_seed_changes_inputs_not_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, first_lines = result_of(run(workload, seed=1))
                second, second_lines = result_of(run(workload, seed=2))
                again, again_lines = result_of(run(workload, seed=1))
                self.assertNotEqual(note(first_lines, "inputs_fingerprint"),
                                    note(second_lines, "inputs_fingerprint"))
                self.assertEqual(note(first_lines, "inputs_fingerprint"),
                                 note(again_lines, "inputs_fingerprint"))
                self.assertEqual(set(first["metrics"]),
                                 set(second["metrics"]))


class CheckingTest(unittest.TestCase):
    def test_wrong_answer_counted_in_error_frac(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = result_of(
                    run(workload, 1, 1, "0", "--wrong-answers", "3"))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 3)
                self.assertGreater(float(note(lines, "error_frac")), 0.0)

    def test_fault_oracle_is_live(self):
        # The same fault workload on consistent hashing must mismatch; a 0
        # for hd is then a measurement, not a dead oracle.
        result, lines = result_of(
            run("emu-faults", 1, 1, "0", "--fault-algorithm",
                "consistent-rank"))
        self.assertGreater(float(note(lines, "mismatch_frac")), 0.0)
        self.assertFalse(result["correct"])
        result, lines = result_of(run("emu-faults"))
        self.assertEqual(float(note(lines, "mismatch_frac")), 0.0)
        self.assertTrue(result["correct"])


class StandaloneTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        if not build.is_absolute():
            build = ROOT / build
        build.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as scratch:
            bare = Path(scratch)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(BENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
