"""Tests for the controller's sensor layer (observe.py)."""

import pytest

from repro.autotune import ArrivalTracker
from repro.autotune.observe import _quantile
from repro.errors import ConfigError


def test_quantile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert _quantile(values, 0.0) == 1.0
    assert _quantile(values, 1.0) == 4.0
    assert _quantile(values, 0.5) == pytest.approx(3.0)
    assert _quantile([], 0.5) == 0.0
    with pytest.raises(ConfigError):
        _quantile(values, 1.5)


def test_tracker_splits_spread_and_laggard_gap():
    tracker = ArrivalTracker()
    tracker.observe([0.0, 2e-6, 5e-6, 4e-3])
    assert tracker.ready
    assert tracker.ewma_spread == pytest.approx(5e-6)
    assert tracker.ewma_laggard_gap == pytest.approx(4e-3 - 5e-6)


def test_tracker_non_monotone_same_as_sorted():
    a, b = ArrivalTracker(), ArrivalTracker()
    a.observe([0.0, 2e-6, 5e-6, 4e-3])
    b.observe([4e-3, 5e-6, 0.0, 2e-6])
    assert a.ewma_spread == b.ewma_spread
    assert a.ewma_laggard_gap == b.ewma_laggard_gap


def test_tracker_single_partition():
    # One partition: nothing to spread over, nothing to drop.
    tracker = ArrivalTracker()
    tracker.observe([7.0])
    assert tracker.ewma_spread == 0.0
    assert tracker.ewma_laggard_gap == 0.0


def test_tracker_empty_round_ignored():
    tracker = ArrivalTracker()
    tracker.observe([])
    assert not tracker.ready
    assert tracker.rounds_seen == 0


def test_tracker_ewma_blending():
    tracker = ArrivalTracker(alpha=0.5, laggards=0)
    tracker.observe([0.0, 4e-6])
    tracker.observe([0.0, 8e-6])
    assert tracker.ewma_spread == pytest.approx(6e-6)


def test_tracker_window_bounds_quantiles():
    tracker = ArrivalTracker(window=2, laggards=0)
    for spread in (1e-6, 2e-6, 9e-6):
        tracker.observe([0.0, spread])
    # Only the last two rounds remain in the window.
    assert tracker.spread_quantile(0.0) == pytest.approx(2e-6)
    assert tracker.spread_quantile(1.0) == pytest.approx(9e-6)


def test_tracker_validation():
    with pytest.raises(ConfigError):
        ArrivalTracker(alpha=0.0)
    with pytest.raises(ConfigError):
        ArrivalTracker(window=0)
    with pytest.raises(ConfigError):
        ArrivalTracker(laggards=-1)
