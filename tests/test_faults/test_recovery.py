"""IB-level recovery semantics and MPI-level graceful degradation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import NIAGARA
from repro.core import FixedAggregation, NativeSpec
from repro.errors import RetryExhaustedError
from repro.faults import FaultSchedule, NICStall
from repro.ib import verbs
from repro.ib.constants import QPState, WCStatus
from repro.ib.wr import RecvWR
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.mpi.persist_module import PersistSpec
from repro.units import KiB, MiB, us
from tests.test_ib.conftest import Pair


def recovery_config(retry_cnt=1, qp_timeout=1, reconnect_delay=us(500)):
    """Short retry budgets so exhaustion happens inside a flap window."""
    return NIAGARA.with_changes(
        nic=replace(NIAGARA.nic, retry_cnt=retry_cnt, qp_timeout=qp_timeout),
        part=replace(NIAGARA.part, reconnect_delay=reconnect_delay),
    )


def run_faulty_roundtrip(spec_factory, schedule, config=None, n_parts=8,
                         psize=1 * MiB, rounds=1):
    """A backed roundtrip under an armed fault schedule.

    Returns (cluster, outcome); data integrity is asserted per round on
    the receive side, so completion implies exactly-once delivery.
    """
    cluster = (Cluster(n_nodes=2, config=config) if config is not None
               else Cluster(n_nodes=2))
    cluster.fabric.install_faults(schedule)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, psize, backed=True)
    rbuf = PartitionedBuffer(n_parts, psize, backed=True)
    outcome = {}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec_factory())
        outcome["send_req"] = req
        for rnd in range(rounds):
            sbuf.fill_pattern(seed=rnd)
            yield from proc.start(req)
            for i in range(n_parts):
                yield from proc.pready(req, i)
            yield from proc.wait_partitioned(req)
        outcome["send_done"] = proc.env.now

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec_factory())
        for rnd in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)
            assert np.array_equal(rbuf.data, rbuf.expected_pattern(
                0, rbuf.nbytes, seed=rnd)), f"payload corrupt in round {rnd}"
        outcome["recv_done"] = proc.env.now

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    return cluster, outcome


# -- QP error semantics (satellite: to_error must flush the SQ too) -------


def test_to_error_flushes_both_queues(env):
    p = Pair(env)
    from tests.test_ib.test_qp import make_write

    p.qp1.post_recv(RecvWR(wr_id=101))
    p.qp0.post_send(make_write(p, wr_id=1))
    p.qp0.post_send(make_write(p, wr_id=2))
    p.qp0.to_error()
    assert p.qp0.state is QPState.ERROR
    wcs = p.cq0.poll(10)
    assert sorted(wc.wr_id for wc in wcs) == [1, 2]
    assert all(wc.status is WCStatus.WR_FLUSH_ERR for wc in wcs)
    assert p.qp0.sq_depth == 0
    # The receive side flushes independently.
    p.qp1.to_error()
    rwcs = p.cq1.poll(10)
    assert [wc.wr_id for wc in rwcs] == [101]
    assert all(wc.status is WCStatus.WR_FLUSH_ERR for wc in rwcs)


def test_to_error_wakes_slot_waiters(env):
    p = Pair(env)
    p.qp0.outstanding_rdma = NIAGARA.nic.max_outstanding_rdma
    woken = []

    def waiter(tag, delay):
        yield delay
        yield p.qp0.wait_rdma_slot()
        woken.append((tag, env.now, p.qp0.state))

    env.process(waiter("early", 0.0))
    env.run()
    assert woken == [] and len(p.qp0._slot_waiters) == 1
    p.qp0.to_error()
    assert p.qp0.outstanding_rdma == 0 and p.qp0._slot_waiters == []
    # Waiting on an already-dead QP returns at once (so pollers and
    # pumps can observe the ERROR state instead of hanging), even with
    # its outstanding count back at the cap.
    p.qp0.outstanding_rdma = NIAGARA.nic.max_outstanding_rdma
    env.process(waiter("late", 1e-6))
    env.run()
    assert woken == [("early", 0.0, QPState.ERROR),
                     ("late", 1e-6, QPState.ERROR)]


def test_reconnect_walks_back_to_rts(env):
    p = Pair(env)
    p.qp0.to_error()
    verbs.reconnect_qps(p.qp0, p.qp1)
    assert p.qp0.state is QPState.RTS
    assert p.qp1.state is QPState.RTS
    assert p.fabric.counters["ib.reconnects"] == 1


# -- retry exhaustion without reconnect (satellite acceptance) -----------


def test_retry_exhaustion_surfaces_error_when_reconnect_disabled():
    sched = (FaultSchedule(allow_reconnect=False)
             .link_flap(0, 1, start=us(50), duration=1.0))
    def spec():
        return NativeSpec(FixedAggregation(2, 1))
    with pytest.raises(RetryExhaustedError):
        run_faulty_roundtrip(spec, sched, config=recovery_config())


def test_retry_exhaustion_leaves_qp_error_with_queues_drained():
    sched = (FaultSchedule(allow_reconnect=False)
             .link_flap(0, 1, start=us(50), duration=1.0))
    def spec():
        return NativeSpec(FixedAggregation(2, 1))
    cluster = Cluster(n_nodes=2, config=recovery_config())
    cluster.fabric.install_faults(sched)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 256 * KiB, backed=True)
    rbuf = PartitionedBuffer(4, 256 * KiB, backed=True)
    reqs = {}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec())
        reqs["send"] = req
        sbuf.fill_pattern(seed=0)
        yield from proc.start(req)
        for i in range(4):
            yield from proc.pready(req, i)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec())
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    with pytest.raises(RetryExhaustedError):
        cluster.run()
    module = reqs["send"].module
    dead = [qp for qp in module.send_qps if qp.state is QPState.ERROR]
    assert dead, "retry exhaustion should leave the send QP in ERROR"
    for qp in dead:
        assert qp.sq_depth == 0
        assert qp.outstanding_rdma == 0
    assert cluster.fabric.counters["ib.retry_exhausted"] > 0
    assert cluster.fabric.counters["ib.reconnects"] == 0


# -- mid-round link flap: exactly-once recovery (tentpole acceptance) ----


def test_native_module_survives_mid_round_flap():
    """A flap mid-transfer: retries exhaust, the QP dies, the module
    reconnects once and replays; the payload still lands exactly once."""
    sched = FaultSchedule().link_flap(0, 1, start=us(100), duration=us(300))
    def spec():
        return NativeSpec(FixedAggregation(2, 1))
    cluster, outcome = run_faulty_roundtrip(
        spec, sched, config=recovery_config(reconnect_delay=us(500)))
    c = cluster.fabric.counters
    assert c["ib.retransmits"] > 0
    assert c["ib.retry_exhausted"] >= 1
    assert c["ib.reconnects"] == 1
    assert c["mpi.replayed_wrs"] > 0
    assert c["mpi.duplicates_dropped"] == 0
    # Every QP walked RESET -> INIT -> RTR -> RTS back to service.
    module = outcome["send_req"].module
    assert all(qp.state is QPState.RTS for qp in module.send_qps)


def test_persist_module_survives_mid_round_flap():
    sched = FaultSchedule().link_flap(0, 1, start=us(100), duration=us(300))
    cluster, _ = run_faulty_roundtrip(
        PersistSpec, sched, config=recovery_config(reconnect_delay=us(500)))
    c = cluster.fabric.counters
    assert c["ib.retransmits"] > 0
    assert c["ib.reconnects"] >= 1


def test_transient_chunk_loss_recovers_without_reconnect():
    """Isolated losses stay below the retry budget: retransmission
    alone recovers and no QP ever leaves RTS."""
    sched = FaultSchedule().chunk_loss(0.1)
    cluster, _ = run_faulty_roundtrip(
        lambda: NativeSpec(FixedAggregation(2, 1)), sched)
    c = cluster.fabric.counters
    assert c["fault.chunks_lost"] > 0
    assert c["ib.retransmits"] > 0
    assert c["ib.reconnects"] == 0
    assert c["ib.retry_exhausted"] == 0


def test_rnr_window_backs_off_and_completes():
    sched = FaultSchedule().rnr_window(1, start=us(40), duration=us(100))
    cluster, _ = run_faulty_roundtrip(
        lambda: NativeSpec(FixedAggregation(2, 1)), sched, psize=64 * KiB)
    assert cluster.fabric.counters["ib.rnr_naks"] > 0


def test_nic_stall_delays_but_completes():
    sched = FaultSchedule(stalls=[NICStall(0, start=us(50), duration=us(200))])
    cluster, outcome = run_faulty_roundtrip(
        lambda: NativeSpec(FixedAggregation(2, 1)), sched)
    assert cluster.fabric.counters["fault.nic_stalls"] > 0
    # The stall pushes completion past the window's end.
    assert outcome["send_done"] > us(250)


# -- the delta-timer-flush vs QP-failure race (satellite regression) ------


def test_timer_flush_racing_qp_failure():
    """A delta-timer flush posting into a QP that fails mid-round must
    neither duplicate nor drop partitions once the channel recovers."""
    sched = FaultSchedule().link_flap(0, 1, start=us(100), duration=us(300))
    def spec():
        return NativeSpec(FixedAggregation(4, 1, timer_delta=us(30)))
    cluster, _ = run_faulty_roundtrip(
        spec, sched, config=recovery_config(reconnect_delay=us(500)),
        rounds=2)
    c = cluster.fabric.counters
    assert c["ib.reconnects"] >= 1
    assert c["mpi.duplicates_dropped"] == 0


def test_degraded_posts_after_fault():
    """After a mid-round fault the aggregator downgrades toward
    per-partition sends for the following round, then re-arms."""
    sched = FaultSchedule().link_flap(0, 1, start=us(100), duration=us(300))
    def spec():
        return NativeSpec(FixedAggregation(2, 1))
    cluster, _ = run_faulty_roundtrip(
        spec, sched, config=recovery_config(reconnect_delay=us(500)),
        rounds=3)
    assert cluster.fabric.counters["mpi.degraded_posts"] > 0
