"""The rule by which every check keeps its largest deviation and its location,
and the report entry of a check."""

import math

import numpy as np

from memoryflow.errors import check, largest_deviation

NAN = float("nan")


class TestLargestDeviation:
    """The array rule: one ``np.argmax`` over the deviations in report order,
    and ``locate`` called for the kept entry alone."""

    @staticmethod
    def located(devs):
        calls = []

        def locate(index):
            calls.append(index)
            return f"i={index}"

        return largest_deviation(np.array(devs, dtype=float), locate), calls

    def test_empty_input(self):
        assert self.located([]) == ((0.0, ""), [])

    def test_zero_deviations_keep_no_location(self):
        assert self.located([0.0, 0.0]) == ((0.0, ""), [])

    def test_largest_wins(self):
        assert self.located([1e-16, 3e-15, 2e-15]) == ((3e-15, "i=1"), [1])

    def test_ties_keep_the_first_pair(self):
        assert self.located([1e-16, 2e-15, 2e-15]) == ((2e-15, "i=1"), [1])

    def test_first_nan_is_kept(self):
        (worst, where), calls = self.located([1.0, NAN, 5.0, NAN])
        assert math.isnan(worst) and where == "i=1" and calls == [1]

    def test_infinity_wins_over_numbers(self):
        assert self.located([1.0, math.inf, 5.0, math.inf]) == ((math.inf, "i=1"), [1])

    def test_table_is_read_in_flat_report_order(self):
        # a (2, 3) table: entry (1, 0) is flat index 3
        assert self.located([[1e-16, 0.0, 2e-16], [3e-15, 3e-15, 0.0]]) == ((3e-15, "i=3"), [3])


class TestCheck:
    def test_entry_fields(self):
        assert check("c", (1e-13, "m=2"), 1e-12) == {
            "name": "c", "max_dev": 1e-13, "tol": 1e-12, "pass": True, "location": "m=2"}

    def test_deviation_at_the_tolerance_passes(self):
        assert check("c", (1e-12, "m=0"), 1e-12)["pass"] is True

    def test_nan_deviation_fails(self):
        entry = check("c", (NAN, "m=1"), 1e-12)
        assert entry["pass"] is False and math.isnan(entry["max_dev"])
