"""Tests of the A/B helpers: the win rule, the verdicts and fingerprint
matching.

    python3 -m unittest discover -s loombench -p 'test_*.py'
"""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402

FP = {"cpu": "x", "nproc": 4, "compiler": "GNU 12", "flags": "-O3",
      "build_type": "Release", "simd": "avx2", "LOOM_ADJ_PAGE": "default",
      "LOOM_HUB_THRESHOLD": "default"}
SPEC = {"end_to_end": [
    {"name": "ingest_eps", "unit": "edges/s", "better": "higher", "bound": 0.1},
    {"name": "batch_p99_us", "unit": "us", "better": "lower", "bound": 0.1},
    {"name": "edge_cut_frac", "unit": "frac", "better": "lower", "bound": 0.1},
]}


def record(seed, eps, p99, cut, fp=FP):
    return {"workload": "w", "seed": seed, "fingerprint": dict(fp),
            "metrics": {"ingest_eps": {"value": eps},
                        "batch_p99_us": {"value": p99},
                        "edge_cut_frac": {"value": cut}}}


class WinShare(unittest.TestCase):
    def test_direction_and_ties(self):
        pairs = [(1, 2), (2, 1), (3, 3), (1, 5)]
        self.assertEqual(ab.win_share(pairs, "higher"), 0.5)
        self.assertEqual(ab.win_share(pairs, "lower"), 0.25)  # tie: neither
        self.assertEqual(ab.win_share([], "lower"), 0.0)


class Verdict(unittest.TestCase):
    def test_gain_needs_nine_tenths_and_a_gap_beyond_the_spread(self):
        a = [100, 101, 102, 99, 100, 101, 100, 99, 102, 100]
        b = [x + 10 for x in a]
        pairs = list(zip(a, b))
        self.assertEqual(ab.verdict(a, b, pairs, "higher", 0.1), "gain")
        # 8 of 10 wins is not enough, even with a large gap.
        b2 = b[:8] + [a[8] - 1, a[9] - 1]
        self.assertEqual(ab.verdict(a, b2, list(zip(a, b2)), "higher", 0.1),
                         "ok")

    def test_gain_within_the_parent_spread_is_not_a_gain(self):
        a = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        b = [x + 1 for x in a]  # wins every pair by less than the IQR
        self.assertEqual(ab.verdict(a, b, list(zip(a, b)), "higher", 0.5),
                         "ok")

    def test_regression_beyond_the_bound(self):
        a = [100.0] * 4 + [101.0] * 4
        b = [120.0] * 8
        self.assertEqual(ab.verdict(a, b, list(zip(a, b)), "lower", 0.1),
                         "regression")
        self.assertEqual(ab.verdict(a, b, list(zip(a, b)), "lower", 0.25),
                         "ok")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        a = [50, 150, 60, 140, 100, 55, 145, 100]
        b = [x * 1.05 for x in a]
        self.assertEqual(ab.verdict(a, b, list(zip(a, b)), "lower", 0.1),
                         "unresolved")
        # ... unless every B run beats every A run.
        b = [10, 11, 12, 10, 11, 12, 10, 11]
        self.assertEqual(ab.verdict(a, b, list(zip(a, b)), "lower", 0.1),
                         "gain")


class Fingerprints(unittest.TestCase):
    def test_any_field_mismatch_blocks_timing_comparison(self):
        self.assertTrue(ab.fingerprints_match(FP, dict(FP)))
        for key in FP:
            other = dict(FP, **{key: "different"})
            self.assertFalse(ab.fingerprints_match(FP, other), key)

    def test_mismatch_skips_timings_but_checks_quality(self):
        other = dict(FP, nproc=1)
        a = [record(s, 100, 10, 0.5) for s in range(4)]
        b = [record(s, 50, 20, 0.5, other) for s in range(4)]
        out = io.StringIO()
        self.assertTrue(ab.compare(a, b, SPEC, out))
        text = out.getvalue()
        self.assertIn("ingest_eps           skipped", text)
        self.assertIn("edge_cut_frac        quality identical", text)

        b[2]["metrics"]["edge_cut_frac"]["value"] = 0.51
        out = io.StringIO()
        self.assertFalse(ab.compare(a, b, SPEC, out))
        self.assertIn("changed on seeds [2]", out.getvalue())

    def test_matching_fingerprints_compare_timings(self):
        a = [record(s, 100 + s, 10, 0.5) for s in range(10)]
        b = [record(s, 70 + s, 10, 0.5) for s in range(10)]
        out = io.StringIO()
        self.assertFalse(ab.compare(a, b, SPEC, out))
        self.assertIn("regression", out.getvalue())


if __name__ == "__main__":
    unittest.main()
