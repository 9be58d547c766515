#!/usr/bin/env python3
"""Tests of the benchmark itself (about two minutes):

    python3 perfbench/selftest.py

Not named ``test_*`` so the library's test suite does not collect it.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import reformlab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(cwd: Path, workload: str, trace: int, seed: int = 1):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class EmittedMetrics(unittest.TestCase):
    """Each workload, in each mode, emits exactly its declared metrics."""

    results: dict = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                cls.results[w["name"], trace] = _run(ROOT, w["name"], trace)

    def test_result_line_and_names(self):
        for key in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            trace = int(key == "per_layer")
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    proc = self.results[w["name"], trace]
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    for name, m in result["metrics"].items():
                        self.assertRegex(name, NAME)
                        self.assertIn(name, declared)
                        self.assertEqual(m["unit"], declared[name])
                        self.assertIsInstance(m["value"], (int, float))
                    self.assertEqual(set(result["metrics"]), set(declared))

    def test_end_to_end_metrics_are_positive(self):
        for w in SPEC["workloads"]:
            proc = self.results[w["name"], 0]
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            for name, m in metrics.items():
                self.assertGreater(m["value"], 0, f"{w['name']} {name}")

    def test_exact_counts(self):
        sweep = json.loads(self.results["sweep-2d", 1].stdout.strip().splitlines()[-1])
        self.assertEqual(sweep["metrics"]["cli.rows"]["value"], 10_000)
        self.assertEqual(sweep["metrics"]["cli.na_cells"]["value"], 10_200)
        mc = json.loads(self.results["simulate-1e7", 1].stdout.strip().splitlines()[-1])
        self.assertEqual(mc["metrics"]["montecarlo.blocks"]["value"], 39)


class Inputs(unittest.TestCase):
    def test_seed_changes_inputs_except_the_sweep(self):
        for cls in workloads.WORKLOADS.values():
            with self.subTest(workload=cls.name):
                a, b = cls(1).inputs_digest(), cls(2).inputs_digest()
                self.assertEqual(a, cls(1).inputs_digest())
                if cls.name == "sweep-2d":
                    self.assertEqual(a, b)
                else:
                    self.assertNotEqual(a, b)

    def test_simulate_is_thread_invariant(self):
        params = reformlab.Params.load(reformlab.fixture_path("sanity"))
        eq = reformlab.solve(params, "opaque")
        config = reformlab.SimConfig(n_draws=3 * (1 << 18) + 1000, seed=5, regime="opaque",
                                     params=params)
        threads = len(os.sched_getaffinity(0))
        out = {}
        try:
            for k in (1, threads):
                os.environ["REFORMLAB_THREADS"] = str(k)
                out[k] = reformlab.simulate(config, eq).to_json()
        finally:
            os.environ["REFORMLAB_THREADS"] = "1"
        self.assertEqual(out[1], out[threads])


class Tracing(unittest.TestCase):
    def test_wrappers_restored_and_outputs_unchanged(self):
        params = reformlab.Params.load(reformlab.fixture_path("sanity"))
        before = reformlab.optimal_regime(params).to_json()
        originals = (reformlab.solve, reformlab.equilibrium.check_assumptions,
                     reformlab.Params.__dict__["replace"])
        tracer = tracing.Tracer()
        self.assertGreater(tracer.install(), 0)
        try:
            self.assertIsNot(reformlab.solve, originals[0])
            root = tracer.begin_pass()
            traced = reformlab.optimal_regime(params).to_json()
            tracer.end_pass(root)
        finally:
            tracer.uninstall()
        self.assertEqual(before, traced)
        self.assertEqual(tracing.leftover_wrappers(), [])
        self.assertEqual(originals, (reformlab.solve, reformlab.equilibrium.check_assumptions,
                                     reformlab.Params.__dict__["replace"]))
        b = tracing.pass_breakdown(tracer, 0)
        self.assertEqual(b["calls"]["equilibrium.solve"], 3)
        self.assertAlmostEqual(sum(b["self"].values()), b["wall"], delta=1e-9)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_library(self):
        bare = BENCH_DIR / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = _run(bare, "simulate-1e7", 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
