"""Tests for terminal visualization."""

from repro.viz import bar_chart, grouped_bars


def test_bar_chart_scales_to_peak():
    out = bar_chart({"a": 1.0, "b": 2.0}, width=10)
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].count("█") == 10       # peak fills the width
    assert 4 <= lines[0].count("█") <= 5   # half of peak


def test_bar_chart_values_printed():
    out = bar_chart({"x": 1.5}, unit="GiB/s")
    assert "1.5GiB/s" in out


def test_bar_chart_reference_marker():
    out = bar_chart({"a": 10.0, "b": 100.0}, width=20, reference=50.0)
    assert "┆" in out  # marker on the shorter bar's idle region


def test_bar_chart_empty():
    assert bar_chart({}) == "(no data)"


def test_bar_chart_zero_values():
    out = bar_chart({"a": 0.0, "b": 0.0})
    assert "█" not in out


def test_grouped_bars_layout():
    series = {
        "64KiB": {"ploggp": 2.0, "timer": 1.8},
        "4MiB": {"ploggp": 1.0},
    }
    out = grouped_bars(series)
    assert "64KiB" in out
    assert "ploggp" in out
    assert "2.00x" in out
    assert "1.00x" in out


def test_grouped_bars_empty():
    assert grouped_bars({}) == "(no data)"


