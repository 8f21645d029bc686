"""Checks of the benchmark's definition. Run with

    python3 perfbench/test_perfbench.py

(`dune runtest` runs it too). They check that

- BENCHMARK.json has the shape the benchmark's contract fixes;
- the metric names the command prints are exactly the ones BENCHMARK.json
  lists: the end-to-end set from run.py's assembly, the per-layer set from
  pb.ml's probes plus the ones run.py derives from the loop;
- every per-layer metric names the end-to-end metric and the workload it
  should move.

A run checks the printed names once more before it prints its result.
"""

import importlib.util
import json
import os
import re
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def names(entries):
    return [e["name"] for e in entries]


def pb_section(start, end):
    """The text of pb.ml between two markers."""
    with open(os.path.join(HERE, "pb.ml")) as f:
        text = f.read()
    i = text.index(start)
    return text[i:text.index(end, i)]


def pb_layer_names():
    """Metric names `pb layers` emits: its engine table and metric list."""
    text = pb_section("let engines =", "let sum =") + pb_section("  let metrics =", "  let trace =")
    return set(re.findall(r'\(\s*"([a-z_]+\.[a-z0-9_.]+)"\s*,', text))


def pb_server_names():
    """Metric names the serve loop reports for the server and the client."""
    return set(re.findall(r'\("((?:server|client)\.[a-z0-9_.]+)",',
                          pb_section("  let server =", "  let plan_cache =")))


class Definition(unittest.TestCase):
    def test_shape(self):
        b = benchmark()
        self.assertEqual(sorted(b), sorted(["command", "paths", "run_seconds", "workloads",
                                            "end_to_end", "per_layer"]))
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)
        self.assertTrue(1 <= len(b["command"]) <= 32)
        for arg in b["command"]:
            self.assertTrue(len(arg) <= 200 and not arg.startswith("/") and ".." not in arg)
        self.assertTrue(1 <= len(b["paths"]) <= 16)
        for p in b["paths"]:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        self.assertIsInstance(b["run_seconds"], int)
        self.assertTrue(1 <= b["run_seconds"] <= 60)
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertTrue(1 <= len(b["end_to_end"]) <= 16)
        for m in b["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertTrue(1 <= len(b["per_layer"]) <= 128)
        for m in b["per_layer"]:
            self.assertEqual(sorted(m), ["better", "name", "unit"])
        every = b["workloads"] + b["end_to_end"] + b["per_layer"]
        for m in every:
            self.assertRegex(m["name"], NAME)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ["higher", "lower"])
        all_names = names(every)
        self.assertEqual(len(all_names), len(set(all_names)))
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_workloads(self):
        self.assertEqual(names(benchmark()["workloads"]), run.WORKLOADS)
        self.assertEqual(sorted(run.SETUP_REPS), sorted(run.WORKLOADS))

    def test_end_to_end_names(self):
        seg = {"p50_ms": 1.0, "qps": 3.0}
        printed = run.e2e_metrics([1.0], seg, 4.0, 0.5)
        self.assertEqual(sorted(printed), sorted(names(benchmark()["end_to_end"])))

    def test_per_layer_names(self):
        seg = {"p50_ms": 1.0, "hit_rate": 1.0}
        loop = {"segments": {"untraced": seg, "traced": seg}, "cpu_frac": 1.0,
                "server": {n: 1.0 for n in pb_server_names()}}
        layers = {"metrics": {n: 1.0 for n in pb_layer_names()}}
        printed = run.layer_metrics(loop, layers)
        self.assertEqual(sorted(printed), sorted(names(benchmark()["per_layer"])))
        # the loop fills in what the probes do not measure, never the reverse
        self.assertFalse(pb_layer_names() & set(run.SERVER_LAYERS))

    def test_layer_targets(self):
        b = benchmark()
        self.assertEqual(sorted(run.LAYER_TARGETS), sorted(names(b["per_layer"])))
        for metric, workload in run.LAYER_TARGETS.values():
            self.assertIn(metric, names(b["end_to_end"]) + list(run.CONTEXT_FIGURES))
            self.assertIn(workload, run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
