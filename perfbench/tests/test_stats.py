"""Unit tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import stats  # noqa: E402


def span(id_, parent, start, end, name="s"):
    return {"id": id_, "parent": parent, "start": start, "end": end,
            "name": name}


class SummarizeTest(unittest.TestCase):
    def test_median_and_count(self):
        s = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual(s["median"], 2.0)
        self.assertEqual(s["n"], 3)

    def test_no_tail_with_ten_or_fewer_samples(self):
        s = stats.summarize([float(i) for i in range(10)])
        self.assertIsNone(s["tail"])
        self.assertIsNone(s["tail_pct"])

    def test_tail_leaves_exactly_ten_samples_beyond(self):
        xs = [float(i) for i in range(1, 101)]  # 1..100
        s = stats.summarize(list(reversed(xs)))
        self.assertEqual(s["tail_pct"], 90.0)
        self.assertEqual(s["tail"], 90.0)
        self.assertEqual(sum(1 for x in xs if x > s["tail"]), 10)

    def test_smallest_sample_count_with_a_tail(self):
        s = stats.summarize([float(i) for i in range(11)])
        self.assertEqual(s["tail"], 0.0)
        self.assertAlmostEqual(s["tail_pct"], 100.0 / 11)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.summarize([])


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertAlmostEqual(stats.self_times([span(0, -1, 1.0, 3.5)])[0],
                               2.5)

    def test_sequential_children_are_subtracted(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 3.0),
                 span(2, 0, 5.0, 6.0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 7.0)

    def test_overlapping_children_count_once(self):
        # Two pool threads working side by side inside one pass.
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 2.0, 6.0),
                 span(2, 0, 4.0, 8.0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 0.0, 4.0), span(1, 0, 3.0, 9.0)]
        self.assertAlmostEqual(stats.self_times(spans)[0], 3.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 0.0, 6.0),
                 span(2, 1, 1.0, 5.0)]
        got = stats.self_times(spans)
        self.assertAlmostEqual(got[0], 4.0)
        self.assertAlmostEqual(got[1], 2.0)
        self.assertAlmostEqual(got[2], 4.0)

    def test_self_times_sum_to_the_root(self):
        spans = [span(0, -1, 0.0, 10.0, "root"), span(1, 0, 1.0, 4.0, "a"),
                 span(2, 1, 2.0, 3.0, "b"), span(3, 0, 5.0, 9.0, "b")]
        by_name = stats.self_time_by_name(spans)
        self.assertAlmostEqual(sum(by_name.values()), 10.0)
        self.assertAlmostEqual(by_name["b"], 5.0)

    def test_coverage(self):
        spans = [span(0, -1, 0.0, 10.0), span(1, 0, 0.0, 4.0),
                 span(2, 0, 3.0, 9.0), span(3, 1, 0.0, 10.0)]
        self.assertAlmostEqual(stats.coverage(spans[0], spans), 0.9)

    def test_weighted_coverage_sees_gaps_inside_each_root(self):
        # Two workers running side by side: a gap inside either one lowers
        # the share, though together they cover the whole interval.
        a = [span(0, -1, 0.0, 10.0), span(1, 0, 0.0, 10.0)]
        b = [span(0, -1, 0.0, 30.0), span(1, 0, 0.0, 15.0)]
        self.assertAlmostEqual(
            stats.weighted_coverage([(a[0], a), (b[0], b)]), 25.0 / 40.0)
        self.assertEqual(stats.weighted_coverage([]), 0.0)


if __name__ == "__main__":
    unittest.main()
