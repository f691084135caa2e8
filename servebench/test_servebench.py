#!/usr/bin/env python3
"""Tests of the serving benchmark itself. Run from the repository root:

    python3 servebench/test_servebench.py

Builds the benchmark through run.py (first run: a few minutes), then checks
that every printed metric matches BENCHMARK.json, that the traced layer
calls cover the timed PredictGuarded call, that EX is identical between
two runs of one seed, and that run.py fails cleanly without the sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SECONDS = "3"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=1200)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


class ServebenchTest(unittest.TestCase):

    def check_names(self, result, declared):
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_match_spec(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 1, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, lines = result_of(proc)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertTrue(any(l.startswith("context:") for l in lines))
                self.assertTrue(any(l.startswith("phase ") for l in lines))
                self.check_names(result, SPEC["end_to_end"])

    def test_traced_run_covers_predict(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, 1, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result, lines = result_of(proc)
                self.assertTrue(result["correct"])
                self.check_names(result, SPEC["per_layer"])
                traced = next(l for l in lines if l.startswith("traced:"))
                tolerance = float(
                    re.search(r"coverage_tolerance_pct=([\d.]+)", traced)[1])
                coverage = result["metrics"]["trace.coverage_pct"]["value"]
                self.assertLessEqual(abs(coverage - 100.0), tolerance, traced)
                spans = os.path.join(ROOT, ".bench_out",
                                     f"spans-{workload}-1.tsv")
                with open(spans) as f:
                    header = f.readline().split()
                    self.assertEqual(header, ["request", "span", "name",
                                              "parent", "start_ns", "end_ns"])
                    self.assertTrue(f.readline())

    def test_ex_identical_between_runs(self):
        first, _ = result_of(run_bench("spider_sft", 7, 0))
        second, _ = result_of(run_bench("spider_sft", 7, 0))
        self.assertEqual(first["metrics"]["ex_pct"]["value"],
                         second["metrics"]["ex_pct"]["value"])

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            RUN[:1] + [os.path.join(bare, os.path.basename(HERE), "run.py"),
                       "--workload", WORKLOADS[0], "--seed", "1",
                       "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
