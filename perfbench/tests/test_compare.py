"""Tests of perfbench/compare.py: spreads and bound checks between result sets."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import compare  # noqa: E402

METRICS = {
    "setup_s": ("s", "lower", 0.25),
    "mpts_per_s": ("Mpt/s", "higher", 0.1),
    "step_s.p90": ("s", "lower", 0.15),
    "exec.kernel_s": ("s", "lower", None),
}


def result_set(setup, mpts, p90, n=10):
    # Small seed-to-seed wobble so medians and quartiles are not degenerate.
    out = []
    for i in range(n):
        f = 1.0 + 0.01 * ((i % 5) - 2)
        out.append({"correct": True, "attempted": 100, "failed": 0, "metrics": {
            "setup_s": {"value": setup * f, "unit": "s"},
            "mpts_per_s": {"value": mpts * f, "unit": "Mpt/s"},
            "step_s.p90": {"value": p90 * f, "unit": "s"},
            "exec.kernel_s": {"value": 9.0 * f, "unit": "s"},
        }})
    return out


class CompareTest(unittest.TestCase):
    def test_identical_sets_are_not_worse(self):
        base = result_set(1.0, 500.0, 0.05)
        self.assertEqual(compare.regressions(base, result_set(1.0, 500.0, 0.05), METRICS), [])

    def test_twice_as_slow_is_flagged_on_every_bounded_metric(self):
        base = result_set(1.0, 500.0, 0.05)
        slow = result_set(2.0, 250.0, 0.10)
        flagged = {f[0] for f in compare.regressions(base, slow, METRICS)}
        self.assertEqual(flagged, {"setup_s", "mpts_per_s", "step_s.p90"})

    def test_faster_is_not_worse(self):
        base = result_set(1.0, 500.0, 0.05)
        self.assertEqual(compare.regressions(base, result_set(0.5, 1000.0, 0.025), METRICS), [])

    def test_spread_is_interquartile_distance_over_median(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, med, q3 = 2.75, 5.5, 8.25  # statistics.quantiles, exclusive method
        self.assertAlmostEqual(compare.spread(vals), (q3 - q1) / med)


if __name__ == "__main__":
    unittest.main()
