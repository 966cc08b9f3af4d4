"""Text reporting helpers (sparklines, panels)."""

import pytest

from repro.analysis import series_panel, sparkline


def test_sparkline_empty():
    assert sparkline([]) == ""


def test_sparkline_flat_series():
    line = sparkline([5, 5, 5, 5])
    assert len(line) == 4
    assert len(set(line)) == 1


def test_sparkline_shows_shape():
    line = sparkline([0, 0, 10, 10])
    assert line[0] != line[-1]
    assert line == "▁▁██"


def test_sparkline_downsamples():
    line = sparkline(list(range(1000)))
    assert len(line) == 60
    assert line[0] == "▁" and line[-1] == "█"


def test_series_panel_annotations():
    panel = series_panel("iops", [(0, 1.0), (1_000_000, 3.0)])
    assert "iops" in panel
    assert "min=1 " in panel
    assert "max=3 " in panel


def test_series_panel_empty():
    assert "(no samples)" in series_panel("x", [])

