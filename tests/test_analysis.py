"""Tests for trace-based analysis."""

import pytest

from repro.analysis import (
    chunk_timeline,
    idle_gaps,
    latency_percentiles,
    message_wire_latencies,
    wire_stats,
)
from repro.config import NIAGARA
from repro.core import FixedAggregation, NativeSpec
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.sim.monitor import Trace
from repro.units import KiB, MiB


def traced_transfer(total_bytes=4 * MiB, n_parts=8, pready_stagger=0.0):
    config = NIAGARA.with_changes(trace_enabled=True, real_buffers=False)
    cluster = Cluster(n_nodes=2, config=config)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, total_bytes // n_parts, backed=False)
    rbuf = PartitionedBuffer(n_parts, total_bytes // n_parts, backed=False)
    spec = lambda: NativeSpec(FixedAggregation(n_parts, 2))

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec())
        yield from proc.start(req)
        for i in range(n_parts):
            if pready_stagger:
                yield proc.env.timeout(pready_stagger)
            yield from proc.pready(req, i)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec())
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    return cluster.trace, cluster.env.now


def test_wire_stats_accounts_all_bytes():
    trace, _ = traced_transfer(total_bytes=4 * MiB)
    stats = wire_stats(trace, node_id=0)
    assert stats.bytes_on_wire == 4 * MiB
    assert stats.n_chunks >= 16  # 4MiB over 256KiB chunks
    assert 0 < stats.utilization <= 1.0


def test_effective_bandwidth_bounded_by_line_rate():
    trace, _ = traced_transfer(total_bytes=16 * MiB)
    stats = wire_stats(trace, node_id=0)
    assert stats.effective_bandwidth <= NIAGARA.nic.line_rate * 1.01
    assert stats.effective_bandwidth > NIAGARA.nic.line_rate * 0.3


def test_timeline_is_sorted_and_non_overlapping():
    trace, _ = traced_transfer()
    timeline = chunk_timeline(trace, node_id=0)
    for (s1, e1, _), (s2, _, _) in zip(timeline, timeline[1:]):
        assert s2 >= s1
        assert s2 >= e1 - 1e-15  # egress is a serializer


def test_idle_gaps_found_with_staggered_arrivals():
    trace, _ = traced_transfer(total_bytes=1 * MiB, pready_stagger=200e-6)
    gaps = idle_gaps(trace, node_id=0, min_gap=50e-6)
    assert len(gaps) >= 6  # one long gap between each staggered pready


def test_no_big_gaps_without_stagger():
    trace, _ = traced_transfer(total_bytes=1 * MiB)
    gaps = idle_gaps(trace, node_id=0, min_gap=50e-6)
    assert gaps == []


def test_message_latencies_positive_and_complete():
    trace, _ = traced_transfer(total_bytes=1 * MiB, n_parts=8)
    latencies = message_wire_latencies(trace)
    assert len(latencies) == 8
    assert all(v > 0 for v in latencies.values())


def test_latency_percentiles_ordered():
    trace, _ = traced_transfer(total_bytes=8 * MiB, n_parts=8)
    pct = latency_percentiles(trace)
    assert pct[50] <= pct[90] <= pct[99]


def test_empty_trace_degenerates_gracefully():
    trace = Trace()
    stats = wire_stats(trace, node_id=0)
    assert stats.utilization == 0.0
    assert stats.effective_bandwidth == 0.0
    assert latency_percentiles(trace) == {50: 0.0, 90: 0.0, 99: 0.0}


def test_read_response_chunks_count_on_the_responder():
    """A rendezvous GET's data is the *responder's* egress traffic."""
    from repro.sim import Environment
    from tests.test_ib.test_rdma_read import make_read_pair, post_read

    nbytes = 1 * MiB
    assert nbytes > NIAGARA.nic.wire_chunk
    pair, _, _, src_mr, dst_mr = make_read_pair(
        Environment(), nbytes, backed=False,
        config=NIAGARA.with_changes(trace_enabled=True))
    post_read(pair, src_mr, dst_mr, nbytes)
    pair.env.run()
    responder = pair.fabric.nic_at(0)
    stats = wire_stats(pair.fabric.trace, node_id=0)
    assert stats.bytes_on_wire == responder.bytes_transmitted == nbytes
    assert stats.n_chunks == nbytes // NIAGARA.nic.wire_chunk
    # The requester put only the header-sized request on its wire.
    assert wire_stats(pair.fabric.trace, node_id=1).bytes_on_wire == 0
