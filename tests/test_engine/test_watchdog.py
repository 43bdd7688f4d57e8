"""The circuit-breaker state machine."""

import pytest

from repro.engine.watchdog import CLOSED, HALF_OPEN, OPEN, CircuitBreaker


# -- CircuitBreaker ----------------------------------------------------


def test_breaker_trips_after_threshold_consecutive_failures():
    b = CircuitBreaker(threshold=3)
    assert b.state == CLOSED
    assert not b.record_failure()
    assert not b.record_failure()
    assert b.record_failure()  # the tripping event reports True
    assert b.state == OPEN
    assert b.trips == 1


def test_open_breaker_ignores_further_failures():
    b = CircuitBreaker(threshold=1)
    assert b.record_failure()
    assert not b.record_failure()
    assert not b.record_failure()
    assert b.trips == 1


def test_success_resets_the_consecutive_count():
    b = CircuitBreaker(threshold=2)
    b.record_failure()
    b.record_success()
    assert not b.record_failure()  # count restarted: 1 of 2
    assert b.state == CLOSED


def test_probation_closes_after_enough_clean_rounds():
    b = CircuitBreaker(threshold=1, probation=3)
    b.record_failure()
    b.begin_probation()
    assert b.state == HALF_OPEN
    assert not b.record_success()
    assert not b.record_success()
    assert b.record_success()  # the closing round reports True
    assert b.state == CLOSED


def test_failure_during_probation_retrips():
    b = CircuitBreaker(threshold=1, probation=3)
    b.record_failure()
    b.begin_probation()
    b.record_success()
    assert b.record_failure()
    assert b.state == OPEN
    assert b.trips == 2


def test_reset_recloses_fully():
    b = CircuitBreaker(threshold=1)
    b.record_failure()
    b.reset()
    assert b.state == CLOSED
    assert b.failures == 0
    assert b.trips == 1  # lifetime count survives


def test_breaker_rejects_bad_knobs():
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(threshold=1, probation=0)
