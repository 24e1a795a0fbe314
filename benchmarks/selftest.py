"""Self-tests of the benchmark itself (not of stanseg).

    python3 benchmarks/selftest.py

Checks that every emitted metric name is well formed and declared in
BENCHMARK.json, that traced and untraced runs cover the same
workloads, and that a corrupted output is counted as failed. Runs
every workload briefly, traced and untraced: about a minute on two
cores.
"""

from __future__ import annotations

import json
import math
import re
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import stanseg  # noqa: E402
import stanseg.cli  # noqa: E402,F401  (makes every stanseg module an attribute)
import workloads  # noqa: E402
from worker import Timed  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class EmittedNames(unittest.TestCase):
    """Short real runs of every workload, untraced and traced."""

    @classmethod
    def setUpClass(cls):
        cls.results = {(w, t): run.run_worker(w, 7, 1, t)
                       for w in run.WORKLOADS for t in (0, 1)}

    def test_declared_names_are_well_formed(self):
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in BENCH[section]:
                self.assertRegex(entry["name"], NAME)

    def test_emitted_names_match_declaration(self):
        declared = {0: {m["name"] for m in BENCH["end_to_end"]},
                    1: {m["name"] for m in BENCH["per_layer"]}}
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
        for (workload, trace), result in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertTrue(result["correct"], result["problems"])
                self.assertEqual(set(result["metrics"]), declared[trace])
                for name, m in result["metrics"].items():
                    self.assertTrue(NAME.fullmatch(name), name)
                    self.assertEqual(m["unit"], units[name])
                    self.assertTrue(math.isfinite(m["value"]), name)
                for name in result["named_metrics"]:
                    self.assertTrue(NAME.fullmatch(name), name)

    def test_traced_and_untraced_cover_the_same_workloads(self):
        untraced = {w for (w, t) in self.results if t == 0}
        traced = {w for (w, t) in self.results if t == 1}
        self.assertEqual(untraced, traced)
        self.assertEqual(untraced, {w["name"] for w in BENCH["workloads"]})


class CorruptedOutputs(unittest.TestCase):
    """A wrong output must show up in ``failed`` and so in error_rate."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.workdir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def test_score_pair_with_a_changed_value_fails(self):
        wl = workloads.ScoreMasks512(3, self.workdir, stanseg)
        wl.run_unit(0, lambda u: Timed(None, "timed", u))
        self.assertEqual(wl.check().failed, 0)
        row = wl.pairs[1][3]
        row["mae"] = float(np.nextafter(row["mae"], math.inf))
        check = wl.check()
        self.assertGreater(check.failed / check.attempted, 0)

    def test_training_call_that_differs_fails(self):
        wl = workloads.TrainStan64(3, self.workdir, stanseg)
        wl.setup()
        wl.run_unit(0, lambda u: Timed(None, "timed", u))
        self.assertEqual(wl.check().failed, 0)
        losses, sha = wl.calls[0]
        wl.calls.append((losses[:-1] + [math.nan], sha))
        wl.calls.append((losses, "0" * 64))
        check = wl.check()
        self.assertEqual(check.failed, 2 * wl.train_cfg.epochs)


if __name__ == "__main__":
    unittest.main()
