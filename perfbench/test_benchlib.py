"""Tests of the benchmark's own arithmetic and clock reader.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(bl.highest_tail(10))
        self.assertEqual(bl.highest_tail(20), 50.0)
        self.assertEqual(bl.highest_tail(100), 90.0)
        self.assertEqual(bl.highest_tail(199), 90.0)
        self.assertEqual(bl.highest_tail(200), 95.0)
        self.assertEqual(bl.highest_tail(999), 95.0)
        self.assertEqual(bl.highest_tail(1000), 99.0)
        self.assertEqual(bl.highest_tail(10000), 99.9)

    def test_counts_beyond_the_rank(self):
        self.assertEqual(bl.beyond(1000, 99.0), 10)
        self.assertEqual(bl.beyond(1040, 99.0), 10)
        self.assertEqual(bl.beyond(104, 90.0), 10)
        self.assertEqual(bl.beyond(1020, 99.0), 10)

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bl.percentile(values, 50.0), 50)
        self.assertEqual(bl.percentile(values, 90.0), 90)
        self.assertEqual(bl.percentile(list(reversed(values)), 99.0), 99)
        self.assertEqual(bl.percentile([7], 99.0), 7)
        with self.assertRaises(ValueError):
            bl.percentile([], 50.0)

    def test_summary_reports_counts(self):
        s = bl.summary([float(v) for v in range(1000)])
        self.assertEqual(s["n"], 1000)
        self.assertEqual(s["tail_q"], 99.0)
        self.assertEqual(s["tail_beyond"], 10)
        self.assertEqual(s["tail"], 989.0)
        self.assertEqual(s["p50"], 499.0)
        self.assertNotIn("tail", bl.summary([1.0] * 5))


def span(parent, wall, cpu=None):
    return {"name": "s", "stmt": 0, "parent": parent, "wall": wall, "cpu": cpu or wall}


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(-1, (0, 100)), span(0, (10, 30)), span(0, (40, 70)),
                 span(2, (45, 50))]
        own = [s["wall"] for s in bl.self_times(spans)]
        self.assertEqual(own, [50, 20, 25, 5])
        # Self times of a tree add up to its root's duration.
        self.assertEqual(sum(own), 100)

    def test_overlap_counts_once_and_is_clipped(self):
        # Overlapping children (parallel work) and a child that runs past
        # its parent's end.
        spans = [span(-1, (0, 100)), span(0, (10, 50)), span(0, (30, 60)),
                 span(0, (90, 120))]
        self.assertEqual(bl.self_times(spans)[0]["wall"], 100 - 50 - 10)

    def test_clocks_are_independent(self):
        spans = [span(-1, (0, 100), (0, 40)), span(0, (10, 90), (5, 35))]
        own = bl.self_times(spans)
        self.assertEqual(own[0], {"wall": 20, "cpu": 10})
        self.assertEqual(own[1], {"wall": 80, "cpu": 30})


BUSY = """
import sys, time
end = time.process_time() + float(sys.argv[1])
while time.process_time() < end:
    pass
sys.stdout.write("done\\n")
sys.stdout.flush()
sys.stdin.read()
"""


class ProcessCpuClock(unittest.TestCase):
    def test_reads_a_busy_child(self):
        child = subprocess.Popen([sys.executable, "-c", BUSY, "0.3"],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            clock = bl.process_cpu_clock(child.pid)
            first = bl.read_clock_ns(clock)
            self.assertEqual(child.stdout.readline(), b"done\n")
            burnt = bl.read_clock_ns(clock)
            # The child burnt 0.3 s of its own CPU, which the clock sees
            # whatever the wall time was; now it blocks and the clock stops.
            self.assertGreaterEqual(burnt, 300_000_000)
            self.assertLess(burnt - first, 2_000_000_000)
            time.sleep(0.2)
            idle = bl.read_clock_ns(clock) - burnt
            self.assertLess(idle, 50_000_000)
        finally:
            child.stdin.close()
            child.wait()

    def test_waits_until_the_child_blocks(self):
        child = subprocess.Popen([sys.executable, "-c", BUSY, "0.3"],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 5.0
            while bl.running_threads(child.pid) != 1:
                self.assertLess(time.monotonic(), deadline, "the child never ran")
                time.sleep(0.005)
            self.assertFalse(bl.wait_idle(child.pid, timeout_s=0.01))
            self.assertTrue(bl.wait_idle(child.pid, timeout_s=5.0))
            # Blocked on its standard input: its clock has stopped.
            self.assertEqual(child.stdout.readline(), b"done\n")
            clock = bl.process_cpu_clock(child.pid)
            settled = bl.read_clock_ns(clock)
            self.assertGreaterEqual(settled, 300_000_000)
            time.sleep(0.1)
            self.assertEqual(bl.read_clock_ns(clock), settled)
        finally:
            child.stdin.close()
            child.wait()

    def test_unknown_process_is_an_error(self):
        with self.assertRaises(OSError):
            bl.process_cpu_clock(2 ** 22 + 12345)


class ReplyChecks(unittest.TestCase):
    def test_answers_split_outside_terms(self):
        self.assertEqual(bl.parse_answer("C = c2, P = pt(3.0, 4.0), D = 2.0"),
                         {"C": "c2", "P": "pt(3.0, 4.0)", "D": "2.0"})

    def test_rows_compare_as_sets(self):
        expect = {"t": "rows", "vars": ["C"], "rows": [["c1"], ["c2"]]}
        self.assertIsNone(bl.check_reply(expect, ["C = c2, D = 0.5", "C = c1, D = 0.0"]))
        self.assertIsNotNone(bl.check_reply(expect, ["C = c2, D = 0.5"]))
        self.assertIsNotNone(bl.check_reply(expect, ["error: boom"]))
        empty = {"t": "rows", "vars": ["C"], "rows": []}
        self.assertIsNone(bl.check_reply(empty, ["no."]))

    def test_commit_and_audit(self):
        ok = "ok (3 facts, 0 rules, 0 constraints) committed as seq 7"
        self.assertIsNone(bl.check_reply({"t": "commit", "facts": 3, "seq": 7}, [ok]))
        self.assertIsNotNone(bl.check_reply({"t": "commit", "facts": 3, "seq": 8}, [ok]))
        self.assertIsNotNone(bl.check_reply({"t": "commit", "facts": 3, "seq": 7},
                                            ["rolled back: no"]))
        reply = ["omega'ERROR(gap0, a, b)",
                 "1 violation(s) (omega: 1, m0: 0); 2 workers",
                 "merged: 12 steps, 3 clause resolutions, table 1 hit (0 snapshot) / 2 miss"]
        self.assertIsNone(bl.check_reply(
            {"t": "audit", "violations": ["omega'ERROR(gap0, a, b)"]}, reply))
        self.assertEqual(bl.merged_steps(reply), 12)


if __name__ == "__main__":
    unittest.main()
