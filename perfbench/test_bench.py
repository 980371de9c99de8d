#!/usr/bin/env python3
"""Tests of the benchmark harness itself, on the smoke path.

    python3 perfbench/test_bench.py

--smoke runs the workload shapes on the registry's quick() families
and tiny seeded draws, so the whole file takes seconds.  It is not part of
`dune runtest`.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace=0, cwd=ROOT, script=None):
    p = subprocess.run(
        ["python3", script or os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return p


def result(p):
    assert p.returncode == 0, p.stderr[-2000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def fingerprint(workload):
    with open(os.path.join(ROOT, ".bench_work", "smoke-" + workload,
                           "fingerprint.json")) as f:
        return json.load(f)


class Harness(unittest.TestCase):
    def test_spec_matches_harness(self):
        self.assertEqual(sorted(WORKLOADS), sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]],
                         run.PER_LAYER)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        for w in WORKLOADS:
            d = result(bench(w, 1))
            self.assertTrue(d["correct"], w)
            self.assertEqual(d["failed"], 0, w)
            self.assertGreaterEqual(d["attempted"], 1)
            self.assertEqual(set(d["metrics"]), {m for m, _ in run.END_TO_END}, w)
            for name, m in d["metrics"].items():
                self.assertGreater(m["value"], 0, f"{w} {name}")

    def test_traced_run_reports_every_per_layer_metric(self):
        for w in WORKLOADS:
            d = result(bench(w, 1, trace=1))
            self.assertTrue(d["correct"], w)
            self.assertEqual(set(d["metrics"]), {m for m, _ in run.PER_LAYER}, w)

    def test_fingerprint_repeats_and_moves_only_with_seeded_instances(self):
        for w in WORKLOADS:
            result(bench(w, 1))
            first = fingerprint(w)
            result(bench(w, 1))
            self.assertEqual(fingerprint(w), first, f"{w}: same seed, other counts")
            result(bench(w, 2))
            other = fingerprint(w)
            self.assertEqual(set(other["cells"]), set(first["cells"]))
            for cell, counts in first["cells"].items():
                inst = cell.split("/")[0]
                if first["rng"][inst] == "-":
                    self.assertEqual(other["cells"][cell], counts, f"{w} {cell}")
            for inst, rng in first["rng"].items():
                if rng != "-":
                    self.assertNotEqual(other["rng"][inst], rng)
                    moved = [c for c in first["cells"] if c.startswith(inst + "/")
                             and other["cells"][c] != first["cells"][c]]
                    self.assertTrue(moved, f"{w}: a new seed left {inst} unchanged")

    def test_refuses_outside_a_checkout(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__", "_build"))
            p = bench(WORKLOADS[0], 1, cwd=d,
                      script=os.path.join(d, "perfbench", "run.py"))
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)

    def test_report_parsing(self):
        text = ('{"clauses_built": 5, "resolution_steps": 9}\n'
                "s VERIFIED UNSATISFIABLE\n")
        self.assertEqual(run.check_report(text),
                         {"clauses_built": 5, "resolution_steps": 9})
        self.assertIsNone(run.check_report("s VERIFIED UNSATISFIABLE\n"))
        self.assertEqual(run.solve_conflicts(
            "c decisions 1, propagations 2, conflicts 3, learned 3, deleted 0, "
            "restarts 0\n"), 3)

    def test_sandwich(self):
        df = {"learned_built_ids": [5], "core_original_ids": [1],
              "resolution_steps": 3, "clauses_built": 1}
        hy = {"learned_built_ids": [5, 6], "core_original_ids": [1, 2],
              "resolution_steps": 4, "clauses_built": 2}
        bf = {"learned_built_ids": [5, 6, 7], "core_original_ids": [],
              "resolution_steps": 5, "clauses_built": 3}
        self.assertIsNone(run.sandwich(df, hy, bf))
        self.assertIsNotNone(run.sandwich(hy, df, bf))


if __name__ == "__main__":
    unittest.main()
