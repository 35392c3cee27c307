"""Tests for text reporting."""

import re

from repro.experiments.reporting import (
    format_comparison,
    format_table,
    utc_now_iso,
)


def test_format_table_alignment():
    text = format_table(["a", "metric"], [[1, 2.5], [100, 33333.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "metric" in lines[1]
    assert len(lines) == 5
    # column widths consistent
    assert len(lines[3]) == len(lines[4])


def test_format_table_float_formatting():
    text = format_table(["x"], [[1234.5678], [0.125]])
    assert "1235" in text  # large floats rounded to int
    assert "0.12" in text  # small floats keep two decimals


def test_format_comparison_signs():
    base = {"data": 100.0, "lat": 50.0}
    cand = {"data": 80.0, "lat": 60.0}
    line = format_comparison("cmp", base, cand)
    assert "data: +20%" in line
    assert "lat: -20%" in line


def test_format_comparison_zero_baseline_skipped():
    line = format_comparison("cmp", {"x": 0.0}, {"x": 5.0})
    assert line == "cmp"


def test_utc_now_iso_shape():
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", utc_now_iso())
