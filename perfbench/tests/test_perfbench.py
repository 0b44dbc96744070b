"""Smoke tests of the repository benchmark.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

Each workload runs at its smoke size (seconds, not minutes) through
perfbench/run.py, which builds the benchmark on first use. The tests check
the result line against BENCHMARK.json, the in-bench oracle, the host
context, determinism per seed, and the refusal to run without the sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("campaign_day", "fleet_metro", "uav_phy")


def run_bench(workload, seed=7, trace=0, cwd=ROOT, run_py=RUN, extra=()):
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), *extra]
    if "--size" not in extra:
        cmd += ["--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class Result:
    def __init__(self, done):
        lines = done.stdout.strip().splitlines()
        self.host = json.loads(lines[-2])["host"]
        self.result = json.loads(lines[-1])
        self.metrics = {k: v["value"] for k, v in self.result["metrics"].items()}


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def result(cls, workload, trace, seed=7):
        key = (workload, trace, seed)
        if key not in cls.runs:
            done = run_bench(workload, seed=seed, trace=trace)
            if done.returncode != 0:
                raise AssertionError(f"{key} exited {done.returncode}: {done.stderr[-2000:]}")
            cls.runs[key] = Result(done)
        return cls.runs[key]

    def check_result_line(self, r, section):
        self.assertEqual(set(r.result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(r.result["correct"])
        self.assertEqual(r.result["failed"], 0)
        self.assertGreaterEqual(r.result["attempted"], 1)
        units = declared(section)
        self.assertEqual(set(r.result["metrics"]), set(units))
        for name, m in r.result["metrics"].items():
            self.assertEqual(m["unit"], units[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_end_to_end_metrics_and_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = self.result(workload, 0)
                self.check_result_line(r, "end_to_end")
                for name, value in r.metrics.items():
                    self.assertGreater(value, 0.0, name)

    def test_per_layer_metrics_and_oracle(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result_line(self.result(workload, 1), "per_layer")

    def test_phase_coverage(self):
        self.assertGreaterEqual(self.result("campaign_day", 1).metrics["fleet.phase_coverage"], 0.9)
        self.assertGreaterEqual(self.result("fleet_metro", 1).metrics["fleet.phase_coverage"], 0.9)
        self.assertGreaterEqual(self.result("uav_phy", 1).metrics["core.epoch.phase_coverage"], 0.9)

    def test_layers_are_exercised_where_expected(self):
        campaign = self.result("campaign_day", 1).metrics
        fleet = self.result("fleet_metro", 1).metrics
        uav = self.result("uav_phy", 1).metrics
        self.assertGreater(campaign["scenario.hour_ms_p50"], 0.0)
        self.assertGreater(campaign["scenario.ckpt_bytes"], 0.0)
        self.assertGreater(fleet["fleet.measure_ms"], 0.0)
        self.assertEqual(fleet["scenario.hour_ms_p50"], 0.0)
        self.assertGreater(uav["lte.tof.correlations"], 0.0)
        self.assertGreater(uav["loc_err_m_p50"], 0.0)
        self.assertEqual(uav["fleet.epoch_ms_p50"], 0.0)
        self.assertEqual(fleet["lte.tof.correlations"], 0.0)

    def test_host_context(self):
        host = self.result("fleet_metro", 0).host
        for key in ("nproc", "lanes", "lanes_resolved", "simd", "build_type", "compiler", "seed",
                    "steps_per_pass", "cycles", "setup_s_samples", "wlane_pass_ue_epochs_per_s"):
            self.assertIn(key, host)
        self.assertEqual(host["lanes"], max(2, host["nproc"] - 1))
        self.assertEqual(host["lanes_resolved"], host["lanes"])
        self.assertEqual(host["seed"], 7)
        self.assertEqual(host["build_type"], "Release")

    def test_model_outputs_repeat_per_seed(self):
        exact = ("availability", "loc_err_m_p50", "min_ue_snr_db", "fleet.handovers",
                 "lte.traffic.ue_ttis", "lte.tof.correlations", "kernels.pathloss.elems_per_step")
        for workload in ("fleet_metro", "uav_phy"):
            with self.subTest(workload=workload):
                first = Result(run_bench(workload, seed=11, trace=1)).metrics
                again = Result(run_bench(workload, seed=11, trace=1)).metrics
                other = Result(run_bench(workload, seed=12, trace=1)).metrics
                for name in exact:
                    self.assertEqual(first[name], again[name], name)
                self.assertNotEqual(first["availability"], other["availability"])

    def test_refuses_without_sources(self):
        build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(build_root, exist_ok=True)
        lone = tempfile.mkdtemp(prefix="isolated-", dir=build_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(lone, "perfbench"))
            done = run_bench("fleet_metro", cwd=lone, run_py=os.path.join(lone, "perfbench", "run.py"),
                             extra=("--size", "full"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(lone)

    def test_rejects_bad_arguments(self):
        done = subprocess.run([sys.executable, RUN, "--workload", "uav_phy", "--seed", "1"],
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
