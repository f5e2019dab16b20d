"""The rule by which every check keeps its largest deviation and its location."""

import math

from memoryflow.errors import largest_deviation

NAN = float("nan")


class TestLargestDeviation:
    def test_empty_input(self):
        assert largest_deviation([]) == (0.0, "")

    def test_zero_deviations_keep_no_location(self):
        assert largest_deviation([(0.0, "a"), (0.0, "b")]) == (0.0, "")

    def test_largest_wins(self):
        assert largest_deviation([(1e-16, "a"), (3e-15, "b"), (2e-15, "c")]) == (3e-15, "b")

    def test_ties_keep_the_first_pair(self):
        assert largest_deviation([(1e-16, "a"), (2e-15, "b"), (2e-15, "c")]) == (2e-15, "b")

    def test_first_nan_is_kept(self):
        worst, where = largest_deviation([(1.0, "a"), (NAN, "b"), (5.0, "c"), (NAN, "d")])
        assert math.isnan(worst) and where == "b"

    def test_accepts_a_generator(self):
        assert largest_deviation((float(m), f"m={m}") for m in range(4)) == (3.0, "m=3")
