"""Tests for two-sided SEND/RECV channel semantics and QP error flush."""

import numpy as np
import pytest

from repro.errors import ProtectionError, QPStateError
from repro.ib.constants import Opcode, QPState, WCOpcode, WCStatus
from repro.ib.wr import SGE, RecvWR, SendWR
from tests.test_ib.conftest import Pair


def test_send_scatters_into_posted_recv(env):
    pair = Pair(env)
    pair.send_buf.fill_pattern(seed=4)
    pair.qp1.post_recv(RecvWR(
        wr_id=1,
        sg_list=[SGE(pair.recv_mr.addr, 4096, pair.recv_mr.lkey)]))
    pair.qp0.post_send(SendWR(
        wr_id=1, opcode=Opcode.SEND,
        sg_list=[SGE(pair.send_mr.addr, 2048, pair.send_mr.lkey)]))
    env.run()
    assert np.array_equal(pair.recv_buf.data[:2048],
                          pair.send_buf.data[:2048])
    [wc] = pair.cq1.poll(4)
    assert wc.opcode is WCOpcode.RECV
    assert wc.byte_len == 2048
    assert wc.imm_data is None


def test_send_with_imm_carries_immediate(env):
    pair = Pair(env)
    pair.qp1.post_recv(RecvWR(
        wr_id=2,
        sg_list=[SGE(pair.recv_mr.addr, 4096, pair.recv_mr.lkey)]))
    pair.qp0.post_send(SendWR(
        wr_id=2, opcode=Opcode.SEND_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
        imm_data=0xBEEF))
    env.run()
    [wc] = pair.cq1.poll(4)
    assert wc.imm_data == 0xBEEF


def test_send_scatters_across_multiple_recv_sges(env):
    pair = Pair(env)
    pair.send_buf.fill_pattern(seed=6)
    pair.qp1.post_recv(RecvWR(
        wr_id=3,
        sg_list=[
            SGE(pair.recv_mr.addr, 100, pair.recv_mr.lkey),
            SGE(pair.recv_mr.addr + 1000, 100, pair.recv_mr.lkey),
        ]))
    pair.qp0.post_send(SendWR(
        wr_id=3, opcode=Opcode.SEND,
        sg_list=[SGE(pair.send_mr.addr, 150, pair.send_mr.lkey)]))
    env.run()
    assert np.array_equal(pair.recv_buf.data[:100],
                          pair.send_buf.data[:100])
    assert np.array_equal(pair.recv_buf.data[1000:1050],
                          pair.send_buf.data[100:150])


def test_send_exceeding_recv_capacity_faults(env):
    pair = Pair(env)
    pair.qp1.post_recv(RecvWR(
        wr_id=4,
        sg_list=[SGE(pair.recv_mr.addr, 64, pair.recv_mr.lkey)]))
    pair.qp0.post_send(SendWR(
        wr_id=4, opcode=Opcode.SEND,
        sg_list=[SGE(pair.send_mr.addr, 128, pair.send_mr.lkey)]))
    with pytest.raises(ProtectionError, match="local length"):
        env.run()


def test_send_does_not_consume_rdma_budget(env):
    pair = Pair(env)
    limit = pair.fabric.config.nic.max_outstanding_rdma
    for i in range(limit + 4):
        pair.qp1.post_recv(RecvWR(
            wr_id=i,
            sg_list=[SGE(pair.recv_mr.addr, 64, pair.recv_mr.lkey)]))
        pair.qp0.post_send(SendWR(
            wr_id=i, opcode=Opcode.SEND,
            sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)]))
    env.run()  # no QPOverflowError despite > 16 in flight
    assert len(pair.cq1.poll(64)) == limit + 4


# ---------------------------------------------------------------------------
# QP error / flush
# ---------------------------------------------------------------------------


def test_error_qp_flushes_posted_recvs(env):
    pair = Pair(env)
    for i in range(3):
        pair.qp1.post_recv(RecvWR(wr_id=i))
    pair.qp1.to_error()
    wcs = pair.cq1.poll(8)
    assert len(wcs) == 3
    assert all(wc.status is WCStatus.WR_FLUSH_ERR for wc in wcs)
    assert [wc.wr_id for wc in wcs] == [0, 1, 2]


def test_error_qp_flushes_pending_sends(env):
    pair = Pair(env)
    pair.qp1.post_recv(RecvWR(wr_id=0))
    pair.qp0.post_send(SendWR(
        wr_id=7, opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey,
        imm_data=0))
    pair.qp0.to_error()  # before the engine picks it up
    env.run()
    wcs = pair.cq0.poll(8)
    assert len(wcs) == 1
    assert wcs[0].status is WCStatus.WR_FLUSH_ERR
    assert wcs[0].wr_id == 7
    # Slot returned despite the flush.
    assert pair.qp0.outstanding_rdma == 0


def test_post_send_rejected_on_error_qp(env):
    pair = Pair(env)
    pair.qp0.to_error()
    with pytest.raises(QPStateError):
        pair.qp0.post_send(SendWR(
            wr_id=1, opcode=Opcode.SEND,
            sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)]))


def test_post_recv_rejected_on_error_qp(env):
    pair = Pair(env)
    pair.qp1.to_error()
    with pytest.raises(QPStateError):
        pair.qp1.post_recv(RecvWR(wr_id=1))


def test_error_qp_recoverable_through_reset(env):
    pair = Pair(env)
    pair.qp0.to_error()
    pair.qp0.modify(QPState.RESET)
    pair.qp0.to_init()
    pair.qp0.to_rtr(1, pair.qp1.qp_num)
    pair.qp0.to_rts()
    assert pair.qp0.state is QPState.RTS


def test_inbound_to_error_qp_faults(env):
    pair = Pair(env)
    pair.qp1.post_recv(RecvWR(wr_id=0))
    pair.qp0.post_send(SendWR(
        wr_id=1, opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey,
        imm_data=0))
    pair.qp1.to_error()  # dies while the message is in flight
    with pytest.raises(ProtectionError):
        env.run()
