"""The rule by which every check keeps its largest deviation and its location,
and the report entry of a check."""

import math

from memoryflow.errors import check, largest_deviation

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


class TestCheck:
    def test_entry_fields(self):
        assert check("c", (1e-13, "m=2"), 1e-12) == {
            "name": "c", "max_dev": 1e-13, "tol": 1e-12, "pass": True, "location": "m=2"}

    def test_deviation_at_the_tolerance_passes(self):
        assert check("c", (1e-12, "m=0"), 1e-12)["pass"] is True

    def test_nan_deviation_fails(self):
        entry = check("c", (NAN, "m=1"), 1e-12)
        assert entry["pass"] is False and math.isnan(entry["max_dev"])
