"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py          # under a minute

Covers the self-time arithmetic, the output gate, the per-operation cap,
the repeatability of traced counts and the BENCHMARK.json contract.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root [0,10] with children a [1,4], b [5,9], c [3,6] (overlapping a
        # and b), and b with child d [6,7]; the children of root cover [1,9]
        names = [0, 1, 2, 3, 4]
        starts = [0.0, 1.0, 5.0, 6.0, 3.0]
        ends = [10.0, 4.0, 9.0, 7.0, 6.0]
        parents = [-1, 0, 0, 2, 0]
        got = tracer.self_times(names, starts, ends, parents)
        self.assertEqual(got, [2.0, 3.0, 3.0, 1.0, 3.0])

    def test_child_outside_parent_is_clipped(self):
        got = tracer.self_times([0, 1], [0.0, 2.0], [4.0, 6.0], [-1, 0])
        self.assertEqual(got, [2.0, 4.0])


class GateTest(unittest.TestCase):
    def setUp(self):
        import wordmetric as wm

        self.letters = gate.letters_of("[x,y]")
        self.target = workloads.relabeled(workloads.pool_cycle_type(200, "selftest"), random.Random(3))
        self.record = wm.approx(wm.parse_word("[x,y]"), wm.Permutation(self.target)).to_dict()

    def test_accepts_the_package_witness(self):
        gate.check_sym_witness(self.record, self.letters, self.target)

    def test_rejects_one_swapped_image(self):
        bad = dict(self.record, g=list(self.record["g"]))
        i = next(i for i in range(len(bad["g"])) if bad["g"][i] != bad["g"][i + 1])
        bad["g"][i], bad["g"][i + 1] = bad["g"][i + 1], bad["g"][i]
        with self.assertRaises(gate.GateError):
            gate.check_sym_witness(bad, self.letters, self.target)

    def test_rejects_a_wrong_distance(self):
        d = Fraction(self.record["achieved_distance"])
        bad = dict(self.record, achieved_distance=str(d + Fraction(1, len(self.target))))
        with self.assertRaises(gate.GateError):
            gate.check_sym_witness(bad, self.letters, self.target)

    def test_rejects_a_wrong_gl_distance(self):
        op = workloads.make_op("gl", (3, 5, "[x^2,y^3]"), random.Random(1))
        wit = op.call()
        op.check(wit)
        g, h, value = ([list(r) for r in m.rows] for m in (wit.g, wit.h, wit.value))
        target = [list(r) for r in wit.target.rows]
        with self.assertRaises(gate.GateError):
            gate.check_gl_witness(
                gate.letters_of("[x^2,y^3]"), g, h, value, target,
                wit.achieved_distance + Fraction(1, 5), 3,
            )
        value[0][0] = (value[0][0] + 1) % 3
        with self.assertRaises(gate.GateError):
            gate.check_gl_witness(
                gate.letters_of("[x^2,y^3]"), g, h, value, target, wit.achieved_distance, 3
            )

    def test_word_convention_matches_the_package(self):
        import wordmetric as wm

        for text in ("[x,y]", "[x^2,y^3]", "[x,y]^2", "[[x,y],[x,y^2]]", "x^2"):
            g = workloads.random_images(9, random.Random(text))
            h = workloads.random_images(9, random.Random(text + "h"))
            want = wm.evaluate_word(wm.parse_word(text), wm.Permutation(g), wm.Permutation(h))
            self.assertEqual(gate.eval_word_perm(gate.letters_of(text), g, h), list(want.images))


class CapTest(unittest.TestCase):
    def test_cap_fires_on_a_busy_loop(self):
        threads = threading.active_count()

        def busy():
            while True:
                pass

        t0 = time.perf_counter()
        with self.assertRaises(worker.Capped):
            worker.capped_call(busy, 0.2)
        self.assertLess(time.perf_counter() - t0, 1.0)
        self.assertEqual(threading.active_count(), threads)

    def test_no_alarm_left_behind(self):
        self.assertEqual(worker.capped_call(lambda: 7, 0.5), 7)
        time.sleep(0.6)  # a leftover alarm would raise here


class TracedRunTest(unittest.TestCase):
    def _traced(self, workload):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "5", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_two_traced_runs_give_identical_counts(self):
        first, second = self._traced("verify"), self._traced("verify")
        self.assertTrue(first["correct"] and second["correct"])
        calls = [k for k in first["metrics"] if k.endswith(".calls")]
        self.assertTrue(calls)
        for k in calls:
            self.assertEqual(first["metrics"][k]["value"], second["metrics"][k]["value"], k)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {k: run.unit_of(k) for k in run.END_TO_END},
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {k: run.unit_of(k) for k in run.PER_LAYER},
        )

    def test_fails_without_the_source_tree(self):
        os.makedirs(run.OUT, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.OUT)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "gl", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
