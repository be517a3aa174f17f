#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Run from the repository root (builds perfbench/ like run.py does and
drives the mem_clog workload's measuring program, a few seconds per
run):

    python3 perfbench/test_perfbench.py
"""

import copy
import json
import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def smtbench(binary, seed, trace):
    """Run the measuring program directly for its per-point results."""
    cmd = [binary, "run", "--workload", "mem_clog", "--seed", str(seed),
           "--specs", os.path.join(run.HERE, "specs"),
           "--work", os.path.join(run.build_dir(), "perfbench-work"),
           "--seconds", "1", "--trace", str(trace)]
    return run.run_json(cmd, time.monotonic() + run.RUN_LIMIT_S)


class SelfTimeTest(unittest.TestCase):
    def test_union_of_overlapping_children_and_aggregates(self):
        spans = [
            {"id": 0, "name": "sweep.cold", "parent": -1,
             "start_ns": 0, "end_ns": 100},
            # Two workers' points overlap in [30, 40]: covered once.
            {"id": 1, "name": "sweep.point", "parent": 0,
             "start_ns": 10, "end_ns": 40},
            {"id": 2, "name": "sweep.point", "parent": 0,
             "start_ns": 30, "end_ns": 60},
            # Runs past the parent's end: clipped to [90, 100].
            {"id": 3, "name": "sweep.point", "parent": 0,
             "start_ns": 90, "end_ns": 120},
            # A grandchild covers its own parent only.
            {"id": 4, "name": "sim.measure", "parent": 1,
             "start_ns": 15, "end_ns": 20},
        ]
        aggregates = [{"name": "workload.next", "parent": 0, "count": 3,
                       "total_ns": 5}]
        self.assertEqual(run.self_time_ns(spans[0], spans, aggregates),
                         100 - 50 - 10 - 5)
        self.assertEqual(run.self_time_ns(spans[1], spans, aggregates),
                         30 - 5)
        self.assertEqual(run.self_time_ns(spans[4], spans, aggregates), 5)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        binary = run.build(run.build_dir())
        cls.plain = smtbench(binary, 0, 0)
        cls.traced = smtbench(binary, 0, 1)
        cls.other_seed = smtbench(binary, 1, 0)
        cls.same_seed = smtbench(binary, 0, 0)

    def digests(self, out):
        return {pid: p["digest"] for pid, p in out["points"].items()}

    def test_traced_run_matches_untraced(self):
        self.assertEqual(self.digests(self.traced), self.digests(self.plain))
        for p in self.traced["points"].values():
            # Cold run, warm re-run and the decorated, sliced run.
            self.assertEqual(p["runs"], 3)
            self.assertEqual(p["failed"], 0, p["errors"])

    def test_seed_changes_generated_inputs(self):
        self.assertNotEqual(self.other_seed["input_digest"],
                            self.plain["input_digest"])
        self.assertNotEqual(self.digests(self.other_seed),
                            self.digests(self.plain))
        self.assertEqual(self.same_seed["input_digest"],
                         self.plain["input_digest"])
        self.assertEqual(self.digests(self.same_seed),
                         self.digests(self.plain))

    def check(self, reference):
        """Check the plain run against reference; @return pass_frac."""
        problems = []
        attempted, failed = run.check_points("mem_clog", 0, self.plain,
                                             None, reference, problems)
        pass_frac = run.end_to_end_metrics(self.plain, attempted,
                                           failed)["pass_frac"]
        return failed, pass_frac, problems

    def test_reference_passes_and_tampered_reference_fails(self):
        with open(run.REFERENCE) as f:
            ref = json.load(f)
        self.assertEqual(self.check(ref), (0, 1.0, []))

        tampered = copy.deepcopy(ref)
        point = next(iter(tampered["mem_clog"].values()))
        point["ipc"] += 1e-9
        failed, pass_frac, problems = self.check(tampered)
        self.assertGreater(failed, 0)
        self.assertLess(pass_frac, 1.0)
        self.assertTrue(problems)


if __name__ == "__main__":
    unittest.main()
