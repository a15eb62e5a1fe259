"""Tests of results.py: `python3 -m unittest discover benchmark`."""

import unittest

from results import compare, judge, spread


def result(workers, rounds, ops_per_s, failed=0):
    run = {
        "workload": "occ_hot",
        "trace": 0,
        "rounds": {"plain": rounds},
        "attempted": 1000,
        "failed": failed,
        "end_to_end": {
            "setup_s": {"value": 0.005},
            "ops_per_s": {"value": ops_per_s},
        },
    }
    return {"meta": {"workers": workers, "seed": "42"}, "runs": [run]}


class Judge(unittest.TestCase):
    def test_follows_the_bound_the_spread_and_the_direction(self):
        # Higher is better: -5 % is within, -20 % is worse.
        self.assertEqual(judge([100], [95], "higher", 0.10), "within")
        self.assertEqual(judge([100], [80], "higher", 0.10), "worse")
        # Lower is better: +20 % is worse, -20 % with every run ahead is better.
        self.assertEqual(judge([10], [12], "lower", 0.10), "worse")
        self.assertEqual(judge([10, 10.1, 9.9], [8, 8.1, 7.9], "lower", 0.10), "better")
        # A spread wider than the bound resolves nothing ...
        noisy = [60, 100, 140, 90]
        self.assertEqual(judge(noisy, [70, 100, 150, 80], "higher", 0.10), "unresolved")
        # ... unless every run of B beats every run of A.
        self.assertEqual(judge(noisy, [300, 200, 400, 250], "higher", 0.10), "better")

    def test_spread_is_the_quartile_distance_over_the_median(self):
        # statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        self.assertAlmostEqual(spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(spread([3.0]), 0.0)


class Compare(unittest.TestCase):
    def test_refuses_mismatched_results(self):
        base = result(2, 300, 1000.0)
        with self.assertRaises(ValueError):
            compare(base, result(4, 300, 1000.0))
        with self.assertRaises(ValueError):
            compare(base, result(2, 100, 1000.0))

    def test_flags_regressions_and_new_failures(self):
        base = result(2, 300, 1000.0)
        table, worse = compare(base, result(2, 300, 950.0))
        self.assertFalse(worse, table)
        table, worse = compare(base, result(2, 300, 700.0))
        self.assertTrue(worse and "worse" in table, table)
        table, worse = compare(base, result(2, 300, 1000.0, failed=10))
        self.assertTrue(worse and "failed_ops_share" in table, table)


if __name__ == "__main__":
    unittest.main()
