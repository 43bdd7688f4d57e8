"""Tests for first-class RDMA READ (the rendezvous-get substrate)."""

import numpy as np
import pytest

from repro.config import NIAGARA
from repro.errors import ProtectionError, QPOverflowError
from repro.faults import FaultSchedule
from repro.ib import verbs
from repro.ib.constants import (
    ACCESS_LOCAL,
    ACCESS_REMOTE_READ,
    Opcode,
    QPState,
    WCOpcode,
    WCStatus,
)
from repro.ib.wr import SGE, SendWR
from repro.mem import Buffer
from repro.units import KiB, MiB
from tests.test_ib.conftest import Pair


def make_read_pair(env, nbytes, backed=True, config=NIAGARA):
    """Node 1 reads from node 0: requester QP on node 1."""
    pair = Pair(env, config=config, bufsize=max(nbytes, 4096), backed=backed)
    src_buf = Buffer(nbytes, backed=backed)
    dst_buf = Buffer(nbytes, backed=backed)
    if backed:
        src_buf.fill_pattern(seed=13)
    src_mr = verbs.ibv_reg_mr(pair.pd0, src_buf,
                              ACCESS_LOCAL | ACCESS_REMOTE_READ)
    dst_mr = verbs.ibv_reg_mr(pair.pd1, dst_buf, ACCESS_LOCAL)
    return pair, src_buf, dst_buf, src_mr, dst_mr


def post_read(pair, src_mr, dst_mr, nbytes, wr_id=1):
    pair.qp1.post_send(SendWR(
        wr_id=wr_id,
        opcode=Opcode.RDMA_READ,
        sg_list=[SGE(dst_mr.addr, nbytes, dst_mr.lkey)],
        remote_addr=src_mr.addr,
        rkey=src_mr.rkey,
    ))


def test_read_moves_bytes(env):
    pair, src, dst, src_mr, dst_mr = make_read_pair(env, 64 * KiB)
    post_read(pair, src_mr, dst_mr, 64 * KiB)
    env.run()
    assert np.array_equal(dst.data, src.data)


def test_read_completion_on_requester(env):
    pair, src, dst, src_mr, dst_mr = make_read_pair(env, 4 * KiB)
    post_read(pair, src_mr, dst_mr, 4 * KiB, wr_id=9)
    env.run()
    wcs = pair.cq1.poll(4)
    assert len(wcs) == 1
    assert wcs[0].opcode is WCOpcode.RDMA_READ
    assert wcs[0].status is WCStatus.SUCCESS
    assert wcs[0].wr_id == 9
    assert wcs[0].byte_len == 4 * KiB
    # No completion and no RQ consumption at the responder.
    assert pair.cq0.poll(4) == []


def test_read_requires_remote_read_access(env):
    pair = Pair(env)
    plain = Buffer(4096)
    src_mr = verbs.ibv_reg_mr(pair.pd0, plain, ACCESS_LOCAL)
    dst = Buffer(4096)
    dst_mr = verbs.ibv_reg_mr(pair.pd1, dst, ACCESS_LOCAL)
    pair.qp1.post_send(SendWR(
        wr_id=1, opcode=Opcode.RDMA_READ,
        sg_list=[SGE(dst_mr.addr, 4096, dst_mr.lkey)],
        remote_addr=src_mr.addr, rkey=src_mr.rkey))
    with pytest.raises(ProtectionError, match="remote read"):
        env.run()


def test_read_counts_toward_outstanding_limit(env):
    pair, src, dst, src_mr, dst_mr = make_read_pair(env, 4 * KiB,
                                                    backed=False)
    limit = NIAGARA.nic.max_outstanding_rdma
    for i in range(limit):
        post_read(pair, src_mr, dst_mr, 1 * KiB, wr_id=i)
    with pytest.raises(QPOverflowError):
        post_read(pair, src_mr, dst_mr, 1 * KiB, wr_id=99)
    env.run()
    assert pair.qp1.outstanding_rdma == 0


def test_read_timing_includes_round_trip(env):
    """A read takes at least a full round trip plus wire time."""
    pair, src, dst, src_mr, dst_mr = make_read_pair(env, 1 * MiB,
                                                    backed=False)
    post_read(pair, src_mr, dst_mr, 1 * MiB)
    env.run()
    [wc] = pair.cq1.poll(4)
    wire = 1 * MiB / NIAGARA.nic.line_rate
    rtt = 2 * NIAGARA.link.latency
    assert wc.completed_at > wire + rtt * 0.9


def test_read_bandwidth_bounded_by_responder_qp(env):
    """A single read streams at most at the responder QP's rate."""
    pair, src, dst, src_mr, dst_mr = make_read_pair(env, 16 * MiB,
                                                    backed=False)
    post_read(pair, src_mr, dst_mr, 16 * MiB)
    env.run()
    [wc] = pair.cq1.poll(4)
    nominal = 16 * MiB / NIAGARA.nic.qp_rate
    assert wc.completed_at == pytest.approx(nominal, rel=0.2)


def test_read_scatter_into_multiple_sges(env):
    pair, src, dst, src_mr, dst_mr = make_read_pair(env, 8 * KiB)
    pair.qp1.post_send(SendWR(
        wr_id=1, opcode=Opcode.RDMA_READ,
        sg_list=[
            SGE(dst_mr.addr, 4 * KiB, dst_mr.lkey),
            SGE(dst_mr.addr + 4 * KiB, 4 * KiB, dst_mr.lkey),
        ],
        remote_addr=src_mr.addr, rkey=src_mr.rkey))
    env.run()
    assert np.array_equal(dst.data, src.data)


def test_loopback_read(env):
    from repro.ib.fabric import Fabric

    fabric = Fabric(env)
    fabric.add_node(0)
    ctx = verbs.ibv_open_device(fabric, 0)
    pd = verbs.ibv_alloc_pd(ctx)
    cq = verbs.ibv_create_cq(ctx)
    qa = verbs.ibv_create_qp(ctx, pd, cq, cq)
    qb = verbs.ibv_create_qp(ctx, pd, cq, cq)
    verbs.connect_qps(qa, qb)
    src, dst = Buffer(4 * KiB), Buffer(4 * KiB)
    src.fill_pattern(seed=2)
    src_mr = verbs.ibv_reg_mr(pd, src, ACCESS_LOCAL | ACCESS_REMOTE_READ)
    dst_mr = verbs.ibv_reg_mr(pd, dst, ACCESS_LOCAL)
    qa.post_send(SendWR(
        wr_id=1, opcode=Opcode.RDMA_READ,
        sg_list=[SGE(dst_mr.addr, 4 * KiB, dst_mr.lkey)],
        remote_addr=src_mr.addr, rkey=src_mr.rkey))
    env.run()
    assert np.array_equal(dst.data, src.data)
    [wc] = cq.poll(4)
    assert wc.completed_at < 2e-6


def test_flushed_read_reports_read_opcode(env):
    """A READ caught past the fetch stage by a QP kill flushes as a READ."""
    pair, src, dst, src_mr, dst_mr = make_read_pair(env, 4 * KiB,
                                                    backed=False)
    post_read(pair, src_mr, dst_mr, 4 * KiB, wr_id=5)
    # Mid-fetch: the WQE has left the SQ (so to_error's drain misses it)
    # and reaches the transmitter only after the QP died.
    env.run(until=NIAGARA.nic.t_wqe / 2)
    pair.qp1.to_error()
    env.run()
    [wc] = pair.cq1.poll(4)
    assert wc.status is WCStatus.WR_FLUSH_ERR
    assert wc.opcode is WCOpcode.RDMA_READ
    assert wc.wr_id == 5
    assert pair.qp1.outstanding_rdma == 0


# -- reads under a fault schedule ------------------------------------------
#
# Completion times are pinned float-hex: a change to the read's retry
# loop or to the chunk train that adds, drops or moves a yield shows up
# here before it shows up in a golden.

READ_1MIB_CLEAN = "0x1.a189a61f4d4cep-14"
READ_1MIB_RESPONSE_LOSS = "0x1.be8d07a393b69p-13"
READ_1MIB_REQUEST_LOSS = "0x1.5a3a90b495e73p-13"
READ_1MIB_EXHAUSTED = "0x1.92a174aa1a461p-15"

#: Covers the second response chunk's egress start (~26 us) but neither
#: the request packet (~0.16 us) nor the retry an ACK timeout later.
RESPONSE_FLAP = dict(start=10e-6, duration=30e-6)
#: Covers only the request packet.
REQUEST_FLAP = dict(start=0.0, duration=0.5e-6)


def faulted_read(env, schedule, retry_cnt=None):
    pair, src, dst, src_mr, dst_mr = make_read_pair(env, 1 * MiB)
    if schedule is not None:
        pair.fabric.install_faults(schedule)
    if retry_cnt is not None:
        pair.qp1.retry_cnt = retry_cnt
    post_read(pair, src_mr, dst_mr, 1 * MiB)
    env.run()
    [wc] = pair.cq1.poll(4)
    return pair, src, dst, wc


@pytest.mark.parametrize("schedule", [None, FaultSchedule()],
                         ids=["no-schedule", "empty-schedule"])
def test_read_completion_time_pinned(env, schedule):
    pair, src, dst, wc = faulted_read(env, schedule)
    assert wc.status is WCStatus.SUCCESS
    assert wc.completed_at.hex() == READ_1MIB_CLEAN
    assert dict(pair.fabric.counters) == {}


@pytest.mark.faults
def test_read_response_chunk_loss_costs_one_ack_timeout(env):
    pair, src, dst, wc = faulted_read(
        env, FaultSchedule().link_flap(0, 1, **RESPONSE_FLAP))
    assert wc.status is WCStatus.SUCCESS
    assert wc.opcode is WCOpcode.RDMA_READ
    counters = dict(pair.fabric.counters)
    assert counters == {"fault.chunks_lost": 1, "ib.retransmits": 1}
    # One ACK timeout plus the wasted part of the first attempt — not two.
    penalty = wc.completed_at - float.fromhex(READ_1MIB_CLEAN)
    assert pair.qp1.ack_timeout < penalty < 2 * pair.qp1.ack_timeout
    assert wc.completed_at.hex() == READ_1MIB_RESPONSE_LOSS
    # The bytes land exactly once: one completion, the sink matches.
    assert np.array_equal(dst.data, src.data)
    # The responder streamed two chunks of the failed attempt, then all
    # four again; the requester's ingress admitted the one good chunk of
    # the first attempt plus the retry.
    chunk = NIAGARA.nic.wire_chunk
    assert pair.fabric.nic_at(0).bytes_transmitted == 1 * MiB + 2 * chunk
    assert pair.fabric.nic_at(1).ingress.bytes_received == 1 * MiB + chunk


@pytest.mark.faults
def test_read_request_loss_costs_one_ack_timeout(env):
    pair, src, dst, wc = faulted_read(
        env, FaultSchedule().link_flap(0, 1, **REQUEST_FLAP))
    assert wc.status is WCStatus.SUCCESS
    counters = dict(pair.fabric.counters)
    assert counters == {"fault.chunks_lost": 1, "ib.retransmits": 1}
    penalty = wc.completed_at - float.fromhex(READ_1MIB_CLEAN)
    assert penalty == pytest.approx(
        pair.qp1.ack_timeout + NIAGARA.nic.t_pkt, rel=1e-9)
    assert wc.completed_at.hex() == READ_1MIB_REQUEST_LOSS
    assert np.array_equal(dst.data, src.data)
    # The request never arrived, so the response streamed exactly once.
    assert pair.fabric.nic_at(0).bytes_transmitted == 1 * MiB


@pytest.mark.faults
def test_read_retry_exhaustion_kills_the_qp(env):
    pair, src, dst, wc = faulted_read(
        env, FaultSchedule().link_flap(0, 1, **RESPONSE_FLAP), retry_cnt=0)
    assert wc.status is WCStatus.RETRY_EXC_ERR
    assert wc.opcode is WCOpcode.RDMA_READ
    assert wc.completed_at.hex() == READ_1MIB_EXHAUSTED
    assert pair.qp1.state is QPState.ERROR
    assert pair.qp1.outstanding_rdma == 0
    counters = dict(pair.fabric.counters)
    assert counters["ib.retry_exhausted"] == 1
    assert "ib.retransmits" not in counters
    assert not np.array_equal(dst.data, src.data)
