"""Reporting helpers and the overhead report."""

import numpy as np
import pytest

from repro.eval import (
    OverheadReport,
    format_curves,
    format_table,
    percent,
    text_histogram,
)


class TestReporting:
    def test_percent(self):
        assert percent(0.1234) == "12.34%"
        assert percent(0.5, digits=0) == "50%"

    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = table.split("\n")
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_format_table_title(self):
        assert format_table(["x"], [["1"]], title="T").startswith("T\n")

    def test_format_curves(self):
        text = format_curves([1, 2], {"s1": [0.5, 0.6], "s2": [0.7, 0.8]})
        assert "s1" in text and "60.00%" in text

    def test_histogram_renders(self):
        values = np.concatenate([np.zeros(50), np.ones(10)])
        text = text_histogram(values, bins=2)
        assert "█" in text
        assert "50" in text

    def test_histogram_empty(self):
        assert "no data" in text_histogram(np.empty(0))


class TestOverheadReport:
    def test_ratios(self):
        report = OverheadReport(
            label="m",
            baseline_seconds=1.0,
            protected_seconds=1.1,
            baseline_memory_bytes=1000,
            protected_memory_bytes=1060,
        )
        assert report.runtime_overhead == pytest.approx(0.10, abs=1e-9)
        assert report.memory_overhead == pytest.approx(0.06, abs=1e-9)

    def test_row_formatting(self):
        report = OverheadReport("m", 0.001, 0.0011, 2**20, 2**20 + 2**18)
        row = report.row()
        assert row[0] == "m"
        assert row[3] == "10.00%"
        assert row[4] == "1.00"
