"""Tests of the benchmark's statistics. Run with

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even_samples(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_single_value(self):
        self.assertEqual(stats.median([7.5]), 7.5)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        # statistics.quantiles' default (exclusive) method on 1..10.
        self.assertEqual(stats.quartiles(range(1, 11)), (2.75, 5.5, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread(range(1, 11)), (8.25 - 2.75) / 5.5)
        self.assertEqual(stats.spread([2.0, 2.0, 2.0, 2.0]), 0.0)


class HighPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        xs = [float(i) for i in range(1, 21)]
        # Twenty samples: the 50th percentile (rank 10) leaves ten above;
        # the 75th (rank 15) leaves only five.
        self.assertEqual(stats.high_percentile(xs), (50.0, 10.0))

    def test_larger_samples_reach_higher_percentiles(self):
        xs = [float(i) for i in range(1, 201)]
        # 200 samples: p95 is rank 190 with ten above; p99 leaves two.
        self.assertEqual(stats.high_percentile(xs), (95.0, 190.0))
        xs = [float(i) for i in range(1, 1001)]
        self.assertEqual(stats.high_percentile(xs), (99.0, 990.0))

    def test_too_small_a_sample_has_none(self):
        self.assertIsNone(stats.high_percentile([1.0] * 19))

    def test_order_does_not_matter(self):
        xs = [float(i) for i in range(40, 0, -1)]
        self.assertEqual(stats.high_percentile(xs), (75.0, 30.0))


class RatioTest(unittest.TestCase):
    def test_keeps_its_base(self):
        self.assertEqual(stats.ratio(3.0, 4.0), {"value": 0.75, "base": 4.0})

    def test_zero_base_has_no_ratio(self):
        self.assertIsNone(stats.ratio(1.0, 0.0))


if __name__ == "__main__":
    unittest.main()
