"""Unit tests for terminal bar-chart rendering."""

import pytest

from repro.analysis.charts import bar_chart


class TestBarChart:
    def test_bar_lengths_are_proportional(self):
        chart = bar_chart({"a": 1.0, "b": 2.0}, width=20)
        lines = chart.splitlines()
        assert lines[0].count("#") * 2 == pytest.approx(
            lines[1].count("#"), abs=2)

    def test_values_are_printed(self):
        chart = bar_chart({"x": 1.5}, width=10)
        assert "1.50" in chart

    def test_reference_marker_is_drawn(self):
        chart = bar_chart({"a": 0.5, "b": 2.0}, width=20, reference=1.0)
        # The short bar's line carries a reference mark beyond its bar.
        assert "|" in chart.splitlines()[0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_nonpositive_peak_raises(self):
        with pytest.raises(ValueError):
            bar_chart({"a": 0.0})

    def test_labels_are_aligned(self):
        chart = bar_chart({"a": 1.0, "longer": 1.0})
        lines = chart.splitlines()
        assert lines[0].index("#") == lines[1].index("#")

