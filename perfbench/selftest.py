"""The benchmark's own tests, on the smoke mode (G(2,4), a few ops each).

    python3 -m unittest perfbench/selftest.py

They check the output schema against BENCHMARK.json, that every answer
gate passes at the reference commit and counts failures when a
reference is wrong, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
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
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
with open(run.REFERENCES, encoding="utf-8") as _fh:
    REFS = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def smoke_args(workload, trace):
    return ["--workload", workload, "--seed", "7", "--seconds", "5",
            "--trace", str(trace), "--smoke"]


def smoke(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")]
    return subprocess.run(cmd + smoke_args(workload, trace), cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SchemaTest(unittest.TestCase):

    def test_declared_metrics_match_the_runner(self):
        self.assertEqual([m["name"] for m in BENCHMARK["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in BENCHMARK["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual(set(WORKLOADS), set(run.OP_TIMEOUT_S))

    def test_smoke_output_schema(self):
        declared = {0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = smoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result_of(proc)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"], proc.stderr)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v
                                      in res["metrics"].items()},
                                     declared[trace])
                    env = json.loads(proc.stdout.strip().splitlines()[-2])
                    self.assertEqual(set(env["env"]["samples"]),
                                     set(declared[trace]))


class GateTest(unittest.TestCase):

    def wrong_references(self):
        refs = copy.deepcopy(REFS)
        refs["tables"][workloads.ctx_key(*workloads.SMOKE)] = "0" * 64
        for q in refs["queries"]:
            if (q["k"], q["n"]) != workloads.SMOKE:
                continue
            if q["kind"] == "gw":
                q["expect"]["value"] += 1
            elif q["kind"] == "spectrum":
                q["expect"]["coords"][0][0][0] += 1e-3
            else:
                q["expect"].append({"p": [9], "c": 1})
        return refs

    def test_wrong_reference_counts_failures(self):
        saved = run.REFERENCES
        with tempfile.TemporaryDirectory() as tmp:
            run.REFERENCES = os.path.join(tmp, "refs.json")
            with open(run.REFERENCES, "w", encoding="utf-8") as fh:
                json.dump(self.wrong_references(), fh)
            try:
                for workload in ("table-g510", "queries"):
                    with self.subTest(workload=workload):
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), \
                                contextlib.redirect_stderr(err):
                            code = run.main(smoke_args(workload, 0))
                        self.assertEqual(code, 0, err.getvalue())
                        res = json.loads(out.getvalue().splitlines()[-1])
                        self.assertFalse(res["correct"])
                        self.assertGreater(res["failed"], 0)
            finally:
                run.REFERENCES = saved

    def test_verify_gate(self):
        ran = '{"failures":0,"suites":[{"checked":3}]}'
        self.assertIsNone(workloads.check_verify(ran))
        self.assertIsNotNone(workloads.check_verify('{"failures":2}'))
        self.assertIsNotNone(workloads.check_verify('{"failures":0}'))
        self.assertIsNotNone(workloads.check_verify(
            '{"failures":0,"suites":[{"checked":0}]}'))
        self.assertIsNotNone(workloads.check_verify("not json"))

    def test_query_gate_ignores_term_order_and_point_order(self):
        entry = {"id": "t", "kind": "mul", "k": 2, "n": 4,
                 "expect": [{"p": [1], "c": 1}, {"p": [2], "c": 3}]}
        out = json.dumps({"terms": [{"p": [2], "c": 3}, {"p": [1], "c": 1}]})
        self.assertIsNone(workloads.check_query(entry, out))
        spec = {"id": "s", "kind": "spectrum", "k": 1, "n": 2,
                "expect": {"residual_tol": 1e-8,
                           "coords": [[[1.0, 0.0]], [[-1.0, 0.0]]]}}
        points = [{"coords": [[-1.0, 1e-9]], "residual": 1e-12},
                  {"coords": [[1.0, 0.0]], "residual": 1e-12}]
        self.assertIsNone(workloads.check_query(
            spec, json.dumps({"points": points})))
        points[0]["residual"] = 1e-6
        self.assertIsNotNone(workloads.check_query(
            spec, json.dumps({"points": points})))


class StandaloneTest(unittest.TestCase):

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = smoke("queries", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
