"""Tests for minimum-delta estimation (Section V-C3 / Fig. 12)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import estimate_min_delta
from repro.core.delta import min_delta_per_round
from repro.errors import ConfigError


def test_single_round_spread():
    # non-laggard arrivals spread over 5us; laggard at 4ms excluded
    rounds = [[0e-6, 2e-6, 5e-6, 4000e-6]]
    assert estimate_min_delta(rounds) == pytest.approx(5e-6)


def test_laggard_excluded_by_rank_not_index():
    rounds = [[4000e-6, 0e-6, 2e-6, 5e-6]]  # laggard first
    assert estimate_min_delta(rounds) == pytest.approx(5e-6)


def test_multiple_rounds_averaged():
    rounds = [
        [0.0, 10e-6, 1e-3],
        [0.0, 20e-6, 1e-3],
    ]
    assert estimate_min_delta(rounds) == pytest.approx(15e-6)


def test_rotating_victim_normalized():
    """Rounds are aligned to their own first arrival before averaging."""
    rounds = [
        [5.0, 5.0 + 10e-6, 5.0 + 1e-3],
        [9.0, 9.0 + 10e-6, 9.0 + 1e-3],
    ]
    assert estimate_min_delta(rounds) == pytest.approx(10e-6)


def test_zero_laggards_includes_all():
    rounds = [[0.0, 1e-6, 2e-6]]
    assert estimate_min_delta(rounds, laggards_per_round=0) == pytest.approx(2e-6)


def test_validation():
    with pytest.raises(ConfigError):
        estimate_min_delta([])
    with pytest.raises(ConfigError):
        estimate_min_delta([[0.0, 1.0], [0.0]])
    with pytest.raises(ConfigError):
        estimate_min_delta([[0.0, 1.0]], laggards_per_round=2)


def test_empty_round_rejected():
    # A round with no arrivals cannot exclude a laggard.
    with pytest.raises(ConfigError):
        estimate_min_delta([[]])


def test_single_partition_round():
    # One partition and no laggard exclusion: spread degenerates to 0.
    rounds = [[0.5]]
    assert estimate_min_delta(rounds, laggards_per_round=0) == 0.0
    with pytest.raises(ConfigError):
        estimate_min_delta(rounds)  # cannot drop the only arrival


def test_zero_delta_when_arrivals_coincide():
    rounds = [[1.0, 1.0, 1.0, 1.0]]
    assert estimate_min_delta(rounds) == 0.0
    assert estimate_min_delta(rounds, laggards_per_round=0) == 0.0


def test_non_monotone_timestamps_sorted_per_round():
    # Pready times arrive in thread-finish order; ranking is by value.
    rounds = [[5e-6, 4000e-6, 2e-6, 0.0]]
    assert estimate_min_delta(rounds) == pytest.approx(5e-6)
    assert min_delta_per_round(rounds) == [pytest.approx(5e-6)]


def test_per_round_diagnostics():
    rounds = [[0.0, 3e-6, 1e-3], [0.0, 7e-6, 1e-3]]
    assert min_delta_per_round(rounds) == [
        pytest.approx(3e-6), pytest.approx(7e-6)]


@given(
    spread=st.floats(min_value=1e-9, max_value=1e-3),
    laggard_extra=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=3, max_value=64),
)
@settings(max_examples=50, deadline=None)
def test_delta_never_exceeds_full_spread(spread, laggard_extra, n):
    import numpy as np

    base = list(np.linspace(0.0, spread, n - 1))
    rounds = [base + [spread + laggard_extra]]
    delta = estimate_min_delta(rounds)
    assert 0 <= delta <= spread + 1e-12
