"""Unit tests of the benchmark's statistics helpers.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_single(self):
        self.assertEqual(stats.median([7.5]), 7.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8]
        self.assertEqual(stats.quartiles(values), (2.25, 4.5, 6.75))
        values = [0.91, 1.2, 1.05, 0.98, 1.1, 1.0, 0.95, 1.3, 1.02, 0.99]
        self.assertEqual(list(stats.quartiles(values)),
                         statistics.quantiles(values, n=4))

    def test_iqr_share(self):
        self.assertAlmostEqual(stats.iqr_share([1, 2, 3, 4, 5, 6, 7, 8]),
                               (6.75 - 2.25) / 4.5)
        self.assertEqual(stats.iqr_share([5.0] * 10), 0.0)

    def test_too_few_raises(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])
        with self.assertRaises(ValueError):
            stats.iqr_share([0.0, 0.0, 0.0])


class TailTest(unittest.TestCase):
    def test_ten_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, count = stats.tail(values)
        self.assertEqual((value, pct, count), (90, 90.0, 100))
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_rank_is_order_independent(self):
        values = [float(v) for v in range(870, 0, -1)]
        value, pct, count = stats.tail(values)
        self.assertEqual(value, 860.0)
        self.assertAlmostEqual(pct, 100.0 * 860 / 870)
        self.assertEqual(count, 870)

    def test_fewer_than_ten_falls_back_to_median(self):
        self.assertEqual(stats.tail([5, 1, 3]), (3, 50.0, 3))
        self.assertEqual(stats.tail([1, 2, 3, 4]), (2.5, 50.0, 4))

    def test_rank_below_median_falls_back(self):
        # 15 samples: rank 4 would sit under the median.
        values = list(range(15))
        self.assertEqual(stats.tail(values), (7, 50.0, 15))
        # 21 samples: rank 10 is the median itself, at its percentile.
        value, pct, _ = stats.tail(list(range(21)))
        self.assertEqual(value, 10)
        self.assertAlmostEqual(pct, 100.0 * 11 / 21)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            stats.tail([])


class BestPerIndexTest(unittest.TestCase):
    def test_elementwise_minimum(self):
        self.assertEqual(stats.best_per_index([[5, 2, 9], [4, 3, 9],
                                               [6, 1, 8]]), [4, 1, 8])
        self.assertEqual(stats.best_per_index([[7, 3]]), [7, 3])

    def test_bad_input_raises(self):
        with self.assertRaises(ValueError):
            stats.best_per_index([])
        with self.assertRaises(ValueError):
            stats.best_per_index([[1, 2], [1]])


class RateTest(unittest.TestCase):
    def test_rate(self):
        self.assertEqual(stats.rate_per_s(1095, 500_000_000), 2190.0)
        self.assertAlmostEqual(stats.rate_per_s(8 * 1095, 1.25e9), 7008.0)

    def test_rate_needs_time(self):
        with self.assertRaises(ValueError):
            stats.rate_per_s(10, 0)

    def test_per(self):
        self.assertEqual(stats.per(10, 4), 2.5)
        self.assertEqual(stats.per(10, 0), 0.0)


if __name__ == "__main__":
    unittest.main()
