"""Tests for ranked distributions and text reporting."""

import pytest

from repro.errors import MetricsError
from repro.metrics.report import (
    format_table,
    group_ranked,
    load_imbalance,
    participation_count,
    percentile,
    ranked_distribution,
)


class TestRankedDistribution:
    def test_sorted_descending(self):
        assert ranked_distribution([1, 5, 3]) == [5, 3, 1]

    def test_group_ranked_mean(self):
        grouped = group_ranked([10, 10, 2, 2], group_size=2)
        assert grouped == [10.0, 2.0]

    def test_group_ranked_sum(self):
        grouped = group_ranked([10, 10, 2, 2], group_size=2, aggregate="sum")
        assert grouped == [20.0, 4.0]

    def test_group_ranked_invalid(self):
        with pytest.raises(MetricsError):
            group_ranked([1], group_size=0)
        with pytest.raises(MetricsError):
            group_ranked([1], aggregate="median")

    def test_participation_count(self):
        assert participation_count([0, 1, 2, 0]) == 2
        assert participation_count([5, 6], threshold=5) == 1

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == 50
        assert percentile(values, 1.0) == 100
        assert percentile([], 0.5) == 0.0

    def test_load_imbalance(self):
        assert load_imbalance([4, 4, 4, 4]) == 1.0
        assert load_imbalance([8, 0, 0, 0]) == 4.0
        assert load_imbalance([]) == 0.0
        assert load_imbalance([0, 0]) == 0.0


class TestFormatting:
    def test_format_table_alignment_and_floats(self):
        text = format_table(
            "Title", ["x", "value"], [[1, 3.14159], [20, 2.0]]
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "x" in lines[1] and "value" in lines[1]
        assert "3.14" in text
        assert len(lines) == 5
