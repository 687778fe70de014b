"""Tests for the load-imbalance ratio and text reporting."""

from repro.metrics.report import format_table, load_imbalance


class TestRankedDistribution:
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
