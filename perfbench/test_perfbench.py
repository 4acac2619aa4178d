#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library):

  * the request list is a pure function of (workload, seed);
  * the sources set no RunConfig / BatchConfig field besides the ones the
    benchmark is allowed to drive, so every other knob stays at its default;
  * the metric catalogue of the binary matches BENCHMARK.json.

Run from the repository root:  python3 perfbench/test_perfbench.py
"""
import glob
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solo-table", "solo-frontier", "batch-mixed"]

# The only config fields the benchmark may set: the request mode and the
# batch's load shape. record_timeline is an output sink (it copies the
# recorded schedule out and changes nothing the solve does); the traced
# run's merge probe needs it.
ALLOWED = {"mode", "concurrency", "threads_per_solve", "queue_capacity"}
SINKS = {"record_timeline"}


def read(path):
    with open(path) as f:
        return f.read()


def run_bench(*args):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + list(args),
                         stdout=subprocess.PIPE, check=True, text=True, cwd=ROOT)
    return out.stdout


def struct_fields(header, struct):
    """Field names declared in `struct <name> { ... };` of a header."""
    text = read(os.path.join(ROOT, "src", header))
    start = text.index("struct %s {" % struct)
    depth, end = 0, start
    for end in range(text.index("{", start), len(text)):
        depth += {"{": 1, "}": -1}.get(text[end], 0)
        if depth == 0:
            break
    body = re.sub(r"//[^\n]*", "", text[start:end])
    return set(re.findall(r"(\w+)\s*(?:=[^;]*)?;", body))


def assigned_fields(source):
    """Names assigned through `.name =` or `->name =` (not `==`)."""
    code = re.sub(r"//[^\n]*", "", source)
    return set(re.findall(r"(?:\.|->)\s*(\w+)\s*=(?!=)", code))


class RequestListTest(unittest.TestCase):
    def test_seed_is_the_only_input(self):
        for w in WORKLOADS:
            a = run_bench("--workload", w, "--seed", "7", "--list")
            b = run_bench("--workload", w, "--seed", "7", "--list")
            c = run_bench("--workload", w, "--seed", "8", "--list")
            self.assertTrue(a.strip(), w)
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)


class DefaultConfigTest(unittest.TestCase):
    def test_only_load_shape_fields_are_set(self):
        fields = (struct_fields("core/run_config.h", "RunConfig")
                  | struct_fields("core/batch_engine.h", "BatchConfig"))
        self.assertIn("batch_kernels", fields)
        self.assertIn("lane_pack", fields)
        forbidden = fields - ALLOWED - SINKS
        sources = glob.glob(os.path.join(HERE, "cpp", "*.h")) + glob.glob(
            os.path.join(HERE, "cpp", "*.cpp"))
        self.assertTrue(sources)
        for path in sources:
            hits = assigned_fields(read(path)) & forbidden
            self.assertFalse(hits, "%s sets %s" % (path, sorted(hits)))

    def test_scanner_sees_assignments(self):
        self.assertEqual(assigned_fields("rc.batch_kernels = false;"),
                         {"batch_kernels"})
        self.assertEqual(assigned_fields("cfg->tile = 64;"), {"tile"})
        self.assertEqual(assigned_fields("RunConfig{.storage = s}"), {"storage"})
        self.assertEqual(assigned_fields("if (rc.mode == m) {}"), set())


class CatalogueTest(unittest.TestCase):
    def test_binary_matches_benchmark_json(self):
        spec = json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))
        cat = json.loads(run_bench("--describe").strip().splitlines()[-1])
        self.assertEqual([w["name"] for w in spec["workloads"]], cat["workloads"])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual([(m["name"], m["unit"]) for m in spec[key]],
                             [(m["name"], m["unit"]) for m in cat[key]], key)
        self.assertEqual([m["better"] for m in spec["per_layer"]],
                         [m["better"] for m in cat["per_layer"]])


if __name__ == "__main__":
    unittest.main()
