"""Simulator properties read straight off ``fabric.trace`` records."""

from repro.config import NIAGARA
from repro.core import FixedAggregation, NativeSpec
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.units import MiB


def traced_transfer(total_bytes=4 * MiB, n_parts=8, pready_stagger=0.0):
    config = NIAGARA.with_changes(trace_enabled=True, real_buffers=False)
    cluster = Cluster(n_nodes=2, config=config)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, total_bytes // n_parts, backed=False)
    rbuf = PartitionedBuffer(n_parts, total_bytes // n_parts, backed=False)
    def spec():
        return NativeSpec(FixedAggregation(n_parts, 2))

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
    return cluster.trace


def egress(trace, node_id):
    """(start, end, bytes) of every wire chunk ``node_id`` sent, in order."""
    return sorted((rec.time, rec.time + rec.data["occupancy"],
                   rec.data["nbytes"]) for rec in trace
                  if rec.category == "ib.chunk" and rec.subject == node_id)


def idle_gaps(trace, node_id, min_gap):
    timeline = egress(trace, node_id)
    return [(e1, s2) for (_, e1, _), (s2, _, _) in zip(timeline, timeline[1:])
            if s2 - e1 > min_gap]


def test_wire_stats_accounts_all_bytes():
    timeline = egress(traced_transfer(total_bytes=4 * MiB), node_id=0)
    assert sum(nbytes for _, _, nbytes in timeline) == 4 * MiB
    assert len(timeline) >= 16  # 4MiB over 256KiB chunks


def test_timeline_is_sorted_and_non_overlapping():
    timeline = egress(traced_transfer(), node_id=0)
    for (s1, e1, _), (s2, _, _) in zip(timeline, timeline[1:]):
        assert s2 >= s1
        assert s2 >= e1 - 1e-15  # egress is a serializer


def test_idle_gaps_found_with_staggered_arrivals():
    trace = traced_transfer(total_bytes=1 * MiB, pready_stagger=200e-6)
    # One long gap between each staggered pready.
    assert len(idle_gaps(trace, node_id=0, min_gap=50e-6)) >= 6


def test_no_big_gaps_without_stagger():
    trace = traced_transfer(total_bytes=1 * MiB)
    assert idle_gaps(trace, node_id=0, min_gap=50e-6) == []


def test_message_latencies_positive_and_complete():
    trace = traced_transfer(total_bytes=1 * MiB, n_parts=8)
    starts = {rec.data["wr_id"]: rec.time for rec in trace
              if rec.category == "ib.wqe_start"}
    delivered = {rec.data["wr_id"]: rec.time for rec in trace
                 if rec.category == "ib.deliver"}
    assert len(delivered) == 8 and delivered.keys() <= starts.keys()
    assert all(delivered[wr_id] > starts[wr_id] for wr_id in delivered)


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
    timeline = egress(pair.fabric.trace, node_id=0)
    assert sum(n for _, _, n in timeline) == responder.bytes_transmitted \
        == nbytes
    assert len(timeline) == nbytes // NIAGARA.nic.wire_chunk
    # The requester put only the header-sized request on its wire.
    assert sum(n for _, _, n in egress(pair.fabric.trace, node_id=1)) == 0
