"""Tests for the trace monitor."""

import pytest

from repro.sim import Trace


def test_record_and_iterate():
    trace = Trace()
    trace.record(1.0, "ib.post", subject=0, nbytes=64)
    trace.record(2.0, "mpi.pready", subject=1)
    assert len(trace) == 2
    records = list(trace)
    assert records[0].time == 1.0
    assert records[0].data == {"nbytes": 64}


def test_disabled_trace_is_noop():
    trace = Trace(enabled=False)
    trace.record(1.0, "x")
    assert len(trace) == 0


def test_filter_by_exact_category():
    trace = Trace()
    trace.record(1.0, "ib.post")
    trace.record(2.0, "ib.deliver")
    assert len(trace.filter(category="ib.post")) == 1


def test_filter_by_category_prefix():
    trace = Trace()
    trace.record(1.0, "ib.post")
    trace.record(2.0, "ib.deliver")
    trace.record(3.0, "mpi.pready")
    assert len(trace.filter(category="ib")) == 2


def test_filter_by_subject():
    trace = Trace()
    trace.record(1.0, "ib.post", subject=0)
    trace.record(2.0, "ib.post", subject=1)
    assert len(trace.filter(subject=1)) == 1


def test_filter_by_predicate():
    trace = Trace()
    trace.record(1.0, "x", n=1)
    trace.record(2.0, "x", n=5)
    heavy = trace.filter(predicate=lambda r: r.data.get("n", 0) > 3)
    assert len(heavy) == 1


def test_clear():
    trace = Trace()
    trace.record(1.0, "x")
    trace.clear()
    assert len(trace) == 0


def test_max_records_keeps_most_recent():
    trace = Trace(max_records=3)
    for i in range(5):
        trace.record(float(i), "x", n=i)
    assert len(trace) == 3
    assert trace.dropped == 2
    assert [r.data["n"] for r in trace] == [2, 3, 4]


def test_max_records_unbounded_by_default():
    trace = Trace()
    for i in range(100):
        trace.record(float(i), "x")
    assert len(trace) == 100
    assert trace.dropped == 0


def test_max_records_validation():
    with pytest.raises(ValueError):
        Trace(max_records=0)


def test_clear_resets_dropped():
    trace = Trace(max_records=1)
    trace.record(1.0, "x")
    trace.record(2.0, "x")
    assert trace.dropped == 1
    trace.clear()
    assert len(trace) == 0
    assert trace.dropped == 0
