"""Self-tests of the benchmark itself (not of qclifford).

Usage (from the root of a checkout):  python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import compare  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Identities  # noqa: E402

import qclifford as qc  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SmallIdentities(Identities):
    cold_rounds = 1
    cycle_rounds = 2


def _cells(row):
    """The columns of a compare.table row, which are two spaces apart."""
    return re.split(r"\s{2,}", row)


def _inputs(wl):
    return repr([wl.cold, wl.checks, wl.cycle])


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in WORKLOADS.values():
            with self.subTest(workload=cls.name):
                self.assertEqual(_inputs(cls(7)), _inputs(cls(7)))
                self.assertNotEqual(_inputs(cls(7)), _inputs(cls(8)))

    def test_same_seed_same_digest(self):
        digests = set()
        for _ in range(2):
            wl = SmallIdentities(7)
            oks, failures, digest = worker.certify(wl, worker.drive(wl, rounds=2))
            self.assertEqual(failures, [])
            digests.add(digest)
        self.assertEqual(len(digests), 1)
        wl = SmallIdentities(8)
        self.assertNotIn(worker.certify(wl, worker.drive(wl, rounds=2))[2], digests)


class Tail(unittest.TestCase):
    def test_min_samples_keeps_ten_beyond(self):
        for pct in (50, 90, 95, 99, 99.5):
            n = stats.min_samples(pct)
            self.assertGreaterEqual(stats.samples_beyond(n, pct), stats.TAIL_SAMPLES)
            self.assertLess(stats.samples_beyond(n - 1, pct), stats.TAIL_SAMPLES)

    def test_drive_runs_until_the_tail_has_ten_beyond(self):
        class Tiny:
            tail_pct = 90
            cold, checks = [[0]], []
            cycle = [[1, 2, 3]]

            def run(self, item):
                return item

        run = worker.drive(Tiny(), seconds=0.0)
        n = len(run["warm"])
        self.assertGreaterEqual(n, stats.min_samples(90))
        self.assertGreaterEqual(stats.samples_beyond(n, 90), 10)
        values = list(range(n))
        cut = stats.percentile(values, 90)
        self.assertGreaterEqual(sum(1 for v in values if v > cut), 10)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile([5.0], 99), 5.0)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_nested_children(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)

        def leaf(dt):
            clock.now += dt

        leaf = tr.wrap(leaf, "m.leaf")

        def mid():
            clock.now += 1.0
            leaf(2.0)
            clock.now += 0.5
            leaf(3.0)

        mid = tr.wrap(mid, "m.mid")

        def top():
            clock.now += 10.0
            mid()
            leaf(4.0)

        top = tr.wrap(top, "n.top")
        top()
        s = tr.summary()["spans"]
        self.assertEqual(s["n.top"], [1, 20.5, 10.0])
        self.assertEqual(s["m.mid"], [1, 6.5, 1.5])
        self.assertEqual(s["m.leaf"], [3, 9.0, 9.0])
        total_self = sum(row[2] for row in s.values())
        self.assertEqual(total_self, s["n.top"][1])

    def test_first_step_and_dump_roundtrip(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)
        inv = tr.wrap(lambda: setattr(clock, "now", clock.now + 2.0), "_linalg.invert_ff")

        def step(build):
            clock.now += 1.0
            if build:  # one inversion per parity block
                inv()
                inv()

        step = tr.wrap(step, "fischer.fischer_step")
        step(True)
        step(False)
        inv()  # an inversion outside any step adds nothing
        summary = tr.summary()
        self.assertEqual(summary["first_step_s"], 5.0)
        self.assertEqual(tracing.layer_metrics(summary)["fischer.first_step_s"], 5.0)
        with tempfile.TemporaryDirectory() as tmp:
            tr.dump(os.path.join(tmp, "t"))
            self.assertEqual(tracing.Tracer.load(os.path.join(tmp, "t")).summary(), summary)

    def test_install_wraps_the_names_callers_use(self):
        tr = tracing.Tracer()
        tr.install()
        try:
            P = qc.parse_poly("x1^2*e1", 2)
            qc.check_relation("weyl", P)
        finally:
            tr.uninstall()
        self.assertIs(qc.check_relation, tracing.sys.modules["qclifford.qops"].check_relation)
        spans = tr.summary()["spans"]
        self.assertEqual(spans["qops.relation.weyl"][0], 1)
        self.assertGreater(spans["qops.q_partial"][0], 0)
        self.assertGreater(spans["parser.tokenize"][0], 0)
        self.assertFalse(hasattr(qc.check_relation, "__wrapped__"))


class BrokenCertificate(unittest.TestCase):
    def test_wrong_output_counts_as_failed(self):
        class Broken(SmallIdentities):
            def run(self, item):
                name, _, P, G = item
                if name == "weyl":  # not the residual: the certificate must reject it
                    return P + qc.CliffordPoly.one(P.m)
                return super().run(item)

        wl = Broken(7)
        run = worker.drive(wl, rounds=2)
        oks, failures, digest = worker.certify(wl, run)
        expected = 4 * 3  # weyl at m = 1..4 in the cold round and the two warm rounds
        self.assertEqual(len(failures), expected)
        self.assertEqual(oks.count(False), expected)
        good = SmallIdentities(7)
        self.assertNotEqual(digest, worker.certify(good, worker.drive(good, rounds=2))[2])

    def test_raising_item_counts_as_failed(self):
        class Raising:
            tail_pct = 50
            cold, checks = [[1]], []
            cycle = [[2, 3]]

            def run(self, item):
                if item == 3:
                    raise ValueError("boom")
                return item

            def certify(self, item, out):
                return str(out)

        run = worker.drive(Raising(), rounds=1)
        oks, failures, _ = worker.certify(Raising(), run)
        self.assertEqual(oks, [True, True, False])
        self.assertEqual(failures, ["ValueError: boom"])


class Verdicts(unittest.TestCase):
    base = {s: 100.0 + s for s in range(10)}

    def test_improved(self):
        new = {s: 50.0 + s for s in range(10)}
        self.assertEqual(compare.verdict(self.base, new, "lower", 0.1), "improved")
        self.assertEqual(compare.verdict(new, self.base, "lower", 0.1), "worse")

    def test_no_worse_and_unresolved(self):
        same = {s: 100.0 + (9 - s) for s in range(10)}
        self.assertEqual(compare.verdict(self.base, same, "lower", 0.1), "no worse")
        wild = {s: 100.0 * (1 + (s % 2)) for s in range(10)}
        self.assertEqual(compare.verdict(self.base, wild, "higher", 0.1), "unresolved")


class FailuresBlockVerdicts(unittest.TestCase):
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25}]}

    def _load(self, values, failed=(), incorrect=()):
        """A results file of one run per seed with metric t."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.jsonl")
            with open(path, "w") as fh:
                for seed, t in values.items():
                    fh.write(json.dumps({
                        "workload": "w", "seed": seed, "trace": 0, "metrics": {"t": t},
                        "correct": seed not in incorrect and seed not in failed,
                        "attempted": 100, "failed": 5 if seed in failed else 0}) + "\n")
            return compare.load(path, 0)

    def _verdicts(self, new):
        base = self._load({s: 10.0 + s for s in range(10)})
        rows = [_cells(row) for row in compare.table(self.spec, base, new).splitlines()[1:]]
        return {row[1]: row[-1] for row in rows}

    def test_faster_but_failing_is_failed(self):
        fast = {s: 1.0 + s for s in range(10)}
        self.assertEqual(self._verdicts(self._load(fast)), {"fail_frac": "no worse",
                                                             "t": "improved"})
        self.assertEqual(self._verdicts(self._load(fast, failed={3})),
                         {"fail_frac": "failed", "t": "failed"})
        self.assertEqual(self._verdicts(self._load(fast, incorrect={3})),
                         {"fail_frac": "failed", "t": "failed"})

    def test_missing_seed_is_incomplete(self):
        fast = {s: 1.0 + s for s in range(9)}
        self.assertEqual(self._verdicts(self._load(fast)),
                         {"fail_frac": "incomplete", "t": "incomplete"})

    def test_fail_frac_is_shown_for_each_side(self):
        base = self._load({s: 10.0 for s in range(4)}, failed={0})
        row = _cells(compare.table(self.spec, base, base).splitlines()[1])
        self.assertEqual(row[:4], ["w", "fail_frac", "ratio", "4"])
        self.assertEqual(row[5], "0")  # base median: one seed of four failed 5%
        self.assertEqual(row[-1], "failed")  # a record with failures is not correct


if __name__ == "__main__":
    unittest.main()
