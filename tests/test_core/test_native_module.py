"""Behavioural tests of the native-verbs module: WR counts, aggregation
semantics, timer dynamics."""

import numpy as np
import pytest

from repro.autotune import AdaptiveAggregator, BanditPolicy
from repro.core import FixedAggregation, NativeSpec, PlanChoice
from repro.core.immediate import encode_immediate
from repro.core.module import spec_for
from repro.core.scatter_gather import ScatterGatherSpec
from repro.errors import PartitionError
from repro.ib.constants import WCOpcode, WCStatus
from repro.ib.wr import WorkCompletion
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.units import KiB, us


def run_with_arrivals(module, arrival_offsets, n_parts=8, psize=1 * KiB,
                      rounds=1):
    """Drive pready calls at explicit per-partition times; ``module``
    is an aggregator (the native module) or a module spec.

    Returns (module, recv buffer, send buffer).
    """
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, psize)
    rbuf = PartitionedBuffer(n_parts, psize)
    sbuf.fill_pattern(seed=1)
    holder = {}

    def thread(proc, req, i, offset):
        yield proc.env.timeout(offset)
        yield from proc.pready(req, i)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0,
                              module=spec_for(module))
        holder["module"] = None
        for _ in range(rounds):
            yield from proc.start(req)
            holder["module"] = req.module
            threads = [proc.env.process(thread(proc, req, i, arrival_offsets[i]))
                       for i in range(n_parts)]
            yield proc.env.all_of(threads)
            yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0,
                              module=spec_for(module))
        for _ in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    return holder["module"], rbuf, sbuf


def test_full_aggregation_posts_one_wr():
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(1, 1), [0.0] * 8)
    assert module.total_wrs_posted == 1
    assert np.array_equal(rbuf.data, sbuf.data)


def test_no_aggregation_posts_one_wr_per_partition():
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(8, 1), [0.0] * 8)
    assert module.total_wrs_posted == 8
    assert np.array_equal(rbuf.data, sbuf.data)


def test_partial_aggregation_wr_count():
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(4, 2), [0.0] * 8)
    assert module.total_wrs_posted == 4
    assert np.array_equal(rbuf.data, sbuf.data)


def test_wr_count_scales_with_rounds():
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(2, 1), [0.0] * 8, rounds=3)
    assert module.total_wrs_posted == 6


def test_group_posts_only_when_last_member_arrives():
    """With 2 groups and one slow member in group 0, group 1's data
    arrives first even though group 0 has earlier partitions."""
    offsets = [0.0, 0.0, 0.0, 500e-6, 0.0, 0.0, 0.0, 0.0]
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(8, 1 * KiB, backed=False)
    rbuf = PartitionedBuffer(8, 1 * KiB, backed=False)
    holder = {}

    def thread(proc, req, i):
        yield proc.env.timeout(offsets[i])
        yield from proc.pready(req, i)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0,
                              module=NativeSpec(FixedAggregation(2, 2)))
        yield from proc.start(req)
        threads = [proc.env.process(thread(proc, req, i)) for i in range(8)]
        yield proc.env.all_of(threads)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0,
                              module=NativeSpec(FixedAggregation(2, 2)))
        holder["req"] = req
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    req = holder["req"]
    group0_arrival = req.arrival_times[0]
    group1_arrival = req.arrival_times[4]
    assert group1_arrival < group0_arrival
    # Group 0 waited for its laggard at 500us.
    assert group0_arrival > 500e-6


def test_timer_flushes_early_arrivals():
    """First arriver flushes after delta; laggard sends itself."""
    delta = us(50)
    offsets = [0.0] * 7 + [400e-6]  # laggard way past delta
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(1, 1, timer_delta=delta), offsets)
    # One WR for the 7 early partitions (contiguous), one for the laggard.
    assert module.timer_flushes == 1
    assert module.total_wrs_posted == 2
    assert np.array_equal(rbuf.data, sbuf.data)


def test_timer_no_flush_when_all_arrive_within_delta():
    delta = us(500)
    offsets = [0.0] * 7 + [50e-6]  # laggard within delta
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(1, 1, timer_delta=delta), offsets)
    assert module.timer_flushes == 0
    assert module.total_wrs_posted == 1


def test_timer_flush_sends_contiguous_runs():
    """Arrived partitions {0,1,3} at flush -> runs {0,1} and {3}; then
    2 arrives alone, then 4..7 arrive together post-flush."""
    delta = us(50)
    offsets = [0.0, 0.0, 200e-6, 0.0, 300e-6, 300e-6, 300e-6, 300e-6]
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(1, 1, timer_delta=delta), offsets)
    assert module.timer_flushes == 1
    # flush: {0,1}, {3} = 2 WRs; partition 2 alone = 1 WR; partitions
    # 4..7 arrive at the same instant post-flush — the DES serializes
    # their preadys, so runs depend on arrival interleaving; at minimum
    # they need 1 WR and at most 4.
    assert 4 <= module.total_wrs_posted <= 7
    assert np.array_equal(rbuf.data, sbuf.data)


def test_timer_disabled_for_singleton_groups():
    """group_size == 1: every pready is its own last arriver."""
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(8, 1, timer_delta=us(50)),
        [0.0] * 8)
    assert module.timer_flushes == 0
    assert module.total_wrs_posted == 8


def test_plan_respects_outstanding_limit_via_flow_control():
    """32 no-agg partitions on 1 QP exceed 16 outstanding; software
    flow control must stall rather than fault."""
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(32, 1), [0.0] * 32, n_parts=32)
    assert module.total_wrs_posted == 32
    assert np.array_equal(rbuf.data, sbuf.data)


def test_no_double_send_under_flush_races():
    """Regression: arrivals landing while a flush is mid-posting (or
    while their own pready is parked on the atomic) must not be posted
    twice — a double-send consumes an extra pre-posted receive WR and
    eventually underflows the RQ (receiver-not-ready)."""
    delta = us(4)
    # Dense arrival stagger around the delta so flushes constantly race
    # with individual arrivals, across many rounds.
    offsets = [i * 1.3e-6 for i in range(16)]
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(1, 1, timer_delta=delta), offsets,
        n_parts=16, rounds=12)
    # Every partition posted exactly once per round.
    assert module.total_wrs_posted <= 16 * 12
    assert np.array_equal(rbuf.data, sbuf.data)


def test_multi_qp_spreads_groups():
    module, rbuf, sbuf = run_with_arrivals(
        FixedAggregation(8, 4), [0.0] * 8)
    posted = [qp.posted_sends for qp in module.send_qps]
    assert len(posted) == 4
    assert all(p == 2 for p in posted)  # 8 groups round-robin on 4 QPs


def armed_pair(spec, n_parts, psize=8, cluster=None):
    """Init and start both sides of one pair, with no ``MPI_Pready``:
    set-up and round arming run to quiescence.  Returns (cluster,
    send request, receive request)."""
    cluster = cluster or Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    reqs = {}

    def side(proc, init, peer):
        req = init(PartitionedBuffer(n_parts, psize, backed=False), peer,
                   tag=0, module=spec)
        reqs[proc.rank] = req
        yield from proc.start(req)

    cluster.spawn(side(s_proc, s_proc.psend_init, 1))
    cluster.spawn(side(r_proc, r_proc.precv_init, 0))
    cluster.run()
    return cluster, reqs[0], reqs[1]


def test_last_of_65536_partitions_is_data_not_a_staging_marker():
    """Partition 65,535's immediate is ``(0xFFFF << 16) | 1``: the
    paper's module reads it as (start, count) like any other."""
    cluster, _, recv_req = armed_pair(NativeSpec(FixedAggregation(2, 1)),
                                      65536)
    module = recv_req.module
    wc = WorkCompletion(0, WCStatus.SUCCESS, WCOpcode.RECV_RDMA_WITH_IMM,
                        module.recv_qps[0].qp_num,
                        imm_data=encode_immediate(65535, 1))
    cluster.spawn(module._on_recv_wc(wc))
    cluster.run()
    assert recv_req.arrived[65535]
    assert int(recv_req.arrived.sum()) == 1


#: Requests some WR of which could not be encoded, refused by setup.
UNENCODABLE = {
    # A group of 65,536 needs count 65,536: one past uint16.
    "count": (NativeSpec(FixedAggregation(1, 1)), 65536),
    # Partition 131,071 needs start 131,071.
    "start": (NativeSpec(FixedAggregation(4, 1)), 1 << 17),
    # Provisioned for its first arm's 4 groups, but the bandit's
    # one-group arm would post a count of 65,536.
    "autotune-arm": (AdaptiveAggregator(lambda *_: BanditPolicy(
        [PlanChoice(4, 1), PlanChoice(1, 1)])), 65536),
    # The ablation's staging marker is start 0xFFFF: partition 65,535.
    "sg-marker": (ScatterGatherSpec(FixedAggregation(2, 1)), 65536),
}


@pytest.mark.parametrize("spec, n_parts", list(UNENCODABLE.values()),
                         ids=list(UNENCODABLE))
def test_unencodable_request_is_refused_at_setup(spec, n_parts):
    """Refused before any CQ or QP exists, not mid-round from inside
    ``encode_immediate``."""
    cluster = Cluster(n_nodes=2)
    with pytest.raises(PartitionError):
        armed_pair(spec_for(spec), n_parts, cluster=cluster)
    module, = cluster.modules
    assert module.send_cq is None and module.send_qps == []
