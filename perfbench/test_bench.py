#!/usr/bin/env python3
"""Checks of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/test_bench.py [WORKLOAD ...]

For each workload (all four by default):

- the untraced run prints every end-to-end metric BENCHMARK.json names,
  with its unit, and the traced run every per-layer metric;
- the exact work counters repeat bit-for-bit across two traced runs at
  one seed, and every outcome matches the reference;
- each committed reference table (perfbench/ref/) equals a reference
  freshly computed with the engine's fast paths off.

Finally, in a directory holding only BENCHMARK.json and perfbench/, the
benchmark must exit non-zero without printing a result.
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

EXACT_COUNTERS = ("faultsim.golden_runs", "faultsim.injections",
                  "faultsim.sim_runs", "uarch.golden_cycles",
                  "merlin.groups", "faultsim.capture_bytes_copied",
                  "faultsim.dedup_aliases", "faultsim.checkpoints")
SEED = 1
WORKLOADS = sys.argv[1:] or sorted(run.WORKLOADS)


def bench(workload, trace, seconds=2, cwd=ROOT):
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seed", str(SEED), "--seconds",
                        str(seconds), "--trace", str(trace)],
                       cwd=cwd, stdout=subprocess.PIPE, text=True)
    return r.returncode, r.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"],
                             m["name"])

    def test_workloads(self):
        spec = benchmark_json()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, out = bench(workload, 0)
                self.assertEqual(rc, 0)
                self.check_metrics(result_of(out), spec["end_to_end"])
                for m in spec["end_to_end"]:
                    self.assertGreater(
                        result_of(out)["metrics"][m["name"]]["value"], 0)

                traced = []
                for _ in range(2):
                    rc, out = bench(workload, 1)
                    self.assertEqual(rc, 0)
                    traced.append(result_of(out))
                    self.check_metrics(traced[-1], spec["per_layer"])
                for name in EXACT_COUNTERS:
                    self.assertEqual(traced[0]["metrics"][name]["value"],
                                     traced[1]["metrics"][name]["value"],
                                     name)

    def test_reference_tables(self):
        bins = run.build()
        ref_dir = os.path.join(HERE, "ref")
        names = sorted(n for n in os.listdir(ref_dir) if n.endswith(".json"))
        self.assertTrue(names)
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as work:
            for name in names:
                workload, seed = name[:-len(".json")].rsplit("-seed", 1)
                if workload not in WORKLOADS:
                    continue
                with self.subTest(table=name):
                    if workload == "serve_mixed":
                        warm, lists = run.serve_inputs(int(seed))
                        specs = warm + run.fresh_specs(lists)
                    else:
                        specs = run.batch_specs(workload, int(seed))
                    with open(os.path.join(ref_dir, name)) as f:
                        committed = json.load(f)
                    self.assertEqual(
                        run.compute_reference(bins, specs, work), committed)

    def test_bare_directory_fails(self):
        bare = tempfile.mkdtemp(dir=run.build_dir())
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, out = bench(WORKLOADS[0], 0, cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertEqual(out.strip(), "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1])
