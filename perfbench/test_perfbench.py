#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Builds the benchmark program through run.py (as a benchmark run does) and checks that the
printed metric names equal BENCHMARK.json's, that a run repeats its modeled
numbers exactly, and that a run that loses particles fails its checks. Every
run is the benchmark's own configuration at --seconds 0: one round of the real
warm-up and window.
"""

import functools
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODELED = ("modeled_step_s", "modeled_deposit_particles_per_s")


@functools.lru_cache(maxsize=None)
def run(workload, trace, *extra):
    """Runs the benchmark; returns (result object, {check: [failed, attempted]})."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", trace, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    checks_line = lines[-2]
    assert checks_line.startswith("checks "), checks_line
    return json.loads(lines[-1]), json.loads(checks_line[len("checks "):])


class PerfbenchTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                result, _ = run("bunched_esirkepov_2r", trace)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
                self.assertEqual(printed, [(m["name"], m["unit"]) for m in spec[key]])

    def test_run_repeats_modeled_metrics(self):
        # In-process: the traced episode equals the untraced one bit for bit.
        _, checks = run("bunched_esirkepov_2r", "1")
        self.assertEqual(checks["traced_equals_untraced"], [0, 1])
        self.assertEqual(checks["checkpoint_round_trip"], [0, 1])
        # Across processes: the printed modeled metrics repeat exactly
        # (run.__wrapped__ bypasses the cache to start a second process).
        first, _ = run("bunched_esirkepov_2r", "0")
        second, _ = run.__wrapped__("bunched_esirkepov_2r", "0")
        for name in MODELED:
            self.assertEqual(second["metrics"][name]["value"],
                             first["metrics"][name]["value"])

    def test_lost_movers_fail_checks(self):
        # --inject-fault drops one tile's staged movers after the warm-up.
        result, checks = run("bunched_esirkepov_2r", "0", "--inject-fault")
        self.assertFalse(result["correct"])
        self.assertGreater(checks["census"][0], 0)
        # On LWFA the health sentinels' own census sees the loss too.
        result, checks = run("lwfa_cic_ions", "1", "--inject-fault")
        self.assertFalse(result["correct"])
        self.assertGreater(checks["census"][0], 0)
        self.assertGreater(checks["health"][0], 0)
        self.assertGreater(result["metrics"]["checks.fail_share"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
