"""Remaining statistics helpers."""

import pytest

from repro.analysis.stats import jitter_index, mean


def test_mean_empty_is_zero():
    assert mean([]) == 0.0


def test_jitter_index_zero_for_constant_series():
    assert jitter_index([5.0, 5.0, 5.0]) == 0.0


def test_jitter_index_grows_with_spread():
    steady = jitter_index([10, 11, 10, 11])
    jittery = jitter_index([10, 30, 5, 40])
    assert jittery > steady > 0


def test_jitter_index_degenerate_cases():
    assert jitter_index([1.0]) == 0.0
    assert jitter_index([0.0, 0.0]) == 0.0
