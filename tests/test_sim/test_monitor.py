"""Tests for the trace monitor."""

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


def test_max_records_unbounded_by_default():
    trace = Trace()
    for i in range(100):
        trace.record(float(i), "x")
    assert len(trace) == 100
