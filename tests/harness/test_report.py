"""Report helpers: tables, series, regression."""

import pytest

from repro.harness.report import format_series, format_table, linear_regression


def test_format_table_aligns_columns():
    text = format_table("T", ["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert lines[0] == "== T =="
    assert "333" in lines[4]
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # all rows padded to equal width


def test_format_table_formats_floats():
    text = format_table("T", ["x"], [[3.14159]])
    assert "3.14" in text


def test_format_series_downsamples_and_scales():
    points = [(float(i), float(i)) for i in range(400)]
    text = format_series("S", points, max_points=20)
    lines = text.splitlines()
    assert len(lines) <= 25
    assert "peak=" in lines[0]
    assert lines[-1].rstrip().endswith("380.0")


def test_format_series_empty():
    assert "no data" in format_series("S", [])


def test_linear_regression_perfect_line():
    slope, intercept, r2 = linear_regression([(0, 1), (1, 3), (2, 5)])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_linear_regression_flat_line():
    slope, _intercept, r2 = linear_regression([(0, 5), (1, 5), (2, 5)])
    assert slope == 0.0


def test_linear_regression_noise_reduces_r2():
    _s, _i, r2 = linear_regression([(0, 0), (1, 5), (2, 1), (3, 6), (4, 2)])
    assert r2 < 0.6


def test_linear_regression_degenerate_inputs():
    assert linear_regression([]) == (0.0, 0.0, 1.0)
    assert linear_regression([(1, 7)]) == (0.0, 7.0, 1.0)
    slope, intercept, _r2 = linear_regression([(2, 3), (2, 9)])
    assert slope == 0.0 and intercept == pytest.approx(6.0)
