"""The fabric's trace: a list of records when enabled, ``None`` when off."""

from dataclasses import asdict

import pytest

import repro.bench.pair
from repro.bench.pair import run_partitioned_pair
from repro.config import NIAGARA
from repro.exp.modules import build_module
from repro.faults import FaultSchedule
from repro.mpi import Cluster
from repro.sim import TraceRecord
from repro.units import KiB


def _native_pair(monkeypatch, trace_enabled, faults=None):
    """The release suite's native pair, and the cluster it ran on."""
    clusters = []

    class Recorded(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    monkeypatch.setattr(repro.bench.pair, "Cluster", Recorded)
    result = run_partitioned_pair(
        build_module(["fixed", {"n_transport": 4, "n_qps": 2}]),
        8, 64 * KiB, iterations=3, warmup=1, backed=True,
        config=NIAGARA.with_changes(trace_enabled=trace_enabled),
        fault_schedule=faults)
    (cluster,) = clusters
    return result, cluster


@pytest.mark.faults
def test_disabled_trace_is_noop(monkeypatch):
    """Tracing records the run and changes nothing in it: every timing
    and every counter of a faulted run is the same with it on or off."""
    loss = FaultSchedule().chunk_loss(0.05)
    off, off_cluster = _native_pair(monkeypatch, False, loss)
    on, on_cluster = _native_pair(monkeypatch, True, loss)
    assert off_cluster.fabric.trace is None and off_cluster.trace is None
    assert on_cluster.trace is on_cluster.fabric.trace
    assert on_cluster.trace
    assert off.counters["fault.chunks_lost"] > 0
    assert list(off.counters.items()) == list(on.counters.items())
    assert asdict(off) == asdict(on)


def test_record_and_iterate(monkeypatch):
    """The NICs append one record per WQE, wire chunk and delivery,
    each with its payload as a plain dict."""
    result, cluster = _native_pair(monkeypatch, True)
    trace = cluster.trace
    assert all(type(rec) is TraceRecord for rec in trace)
    assert {rec.category for rec in trace} == {
        "ib.wqe_start", "ib.chunk", "ib.deliver"}
    chunks = [rec for rec in trace if rec.category == "ib.chunk"]
    assert set(chunks[0].data) == {"qp", "nbytes", "occupancy"}
    # Every payload byte of every round crossed node 0's wire once.
    assert sum(rec.data["nbytes"] for rec in chunks
               if rec.subject == 0) == result.total_bytes * 4
