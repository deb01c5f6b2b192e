#!/usr/bin/env python3
"""Benchmark-local tests. Run from the repository root:

    python3 perfbench/selftest.py

Covers the quartile and spread helpers of the steadiness tool on known
vectors; the binary's own checks (`perfbench selftest`: percentile helper,
latency histogram, self time and trace.coverage on a synthetic span tree,
seed determinism and shape); the set-up process of each workload; failure
accounting (one injected wrong answer per workload is counted as one failed
operation, and failed never exceeds attempted); the traced span file loading
in `cali-query --json-input`; and BENCHMARK.json naming exactly the metrics
the binary reports and the workloads it gates.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import steady  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_known_vectors(self):
        self.assertEqual(steady.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                         (2.75, 5.5, 8.25))
        self.assertEqual(steady.quartiles([7, 3]), (2.0, 5.0, 8.0))
        self.assertEqual(steady.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread(self):
        self.assertAlmostEqual(steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 1.0)
        self.assertAlmostEqual(steady.spread([100, 102, 98, 101, 99]), 0.03)
        self.assertEqual(steady.spread([10, 10, 10, 10]), 0.0)
        self.assertEqual(steady.spread([0, 0, 0]), 0.0)


class Binary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not bench.build(("perfbench", "cali-query")):
            raise RuntimeError("build failed")

    def test_binary_selftest(self):
        out = subprocess.run([bench.BINARY, "selftest", "--dir",
                              os.path.join(bench.BUILD, "selftest")],
                             stdout=subprocess.PIPE, text=True)
        sys.stderr.write(out.stdout)
        self.assertEqual(out.returncode, 0)

    def test_setup_process(self):
        for workload in bench.WORKLOADS:
            out = subprocess.run(
                [bench.BINARY, "setup", "--workload", workload, "--seed", "7",
                 "--dir", bench.inputs(workload, 7), "--out", bench.BUILD],
                stdout=subprocess.PIPE, text=True, timeout=120)
            self.assertEqual(out.returncode, 0, workload)
            word, setup_s, rate, _, attempted, failed = out.stdout.split()
            self.assertEqual(word, "setup")
            self.assertGreater(float(setup_s), 0, workload)
            self.assertEqual(float(rate) > 0, workload == "live_exact", workload)
            self.assertEqual(int(failed), 0, workload)
            # live: one probe per pusher and folded == pushed; runtime: the
            # snapshot count; offline: none (run compares the answer's hash)
            self.assertEqual(int(attempted), 3 if workload == "live_exact" else
                             1 if workload == "runtime_event" else 0, workload)

    def test_injected_fault_is_counted(self):
        for workload in bench.WORKLOADS:
            clean = bench.run(workload, 7, 2, 0)
            faulty = bench.run(workload, 7, 2, 0, ("--inject-fault",))
            self.assertIsNotNone(clean, workload)
            self.assertIsNotNone(faulty, workload)
            # short runs may be too few requests for p90 in both
            self.assertEqual(faulty["failed"], clean["failed"] + 1, workload)
            for report in (clean, faulty):
                self.assertLessEqual(report["failed"], report["attempted"], workload)
            self.assertFalse(bench.result_line(faulty, 0)["correct"], workload)

    def test_span_file_loads_in_cali_query(self):
        report = bench.run("offline_paradis", 7, 2, 1)
        self.assertIsNotNone(report)
        spans = os.path.join(bench.BUILD, "out", "offline_paradis-7-1",
                             "spans-offline_paradis.json")
        out = subprocess.run(
            [os.path.join(bench.BUILD, "calib", "src", "cali-query"), "--json-input",
             "-q", "AGGREGATE sum(self_us),count GROUP BY layer ORDER BY layer FORMAT csv",
             spans], stdout=subprocess.PIPE, text=True)
        self.assertEqual(out.returncode, 0)
        layers = [line.split(",")[0] for line in out.stdout.splitlines()[1:]]
        for layer in ("engine", "query", "request"):
            self.assertIn(layer, layers)
        self.assertGreater(report["metrics"]["trace.coverage"]["value"], 0.9)

    def test_benchmark_json_names_the_reported_metrics(self):
        path = os.path.join(os.getcwd(), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json in the working directory")
        with open(path) as f:
            doc = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(bench.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         bench.layer_names())
        # offline_paradis runs but is not gated (see README.md, Steadiness)
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         [w for w in bench.WORKLOADS if w != "offline_paradis"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
