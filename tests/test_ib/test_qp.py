"""QP state machine and posting-rule tests."""

import pytest

from repro.errors import QPOverflowError, QPStateError
from repro.ib import verbs
from repro.ib.constants import Opcode, QPState
from repro.ib.wr import SGE, RecvWR, SendWR
from tests.test_ib.conftest import Pair


def make_write(pair, wr_id=1, length=64, imm=0):
    return SendWR(
        wr_id=wr_id,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, length, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr,
        rkey=pair.recv_mr.rkey,
        imm_data=imm,
    )


def test_fresh_qp_is_reset(env):
    p = Pair(env)
    # connect_qps already ran; create an unconnected QP to inspect RESET
    qp = verbs.ibv_create_qp(p.ctx0, p.pd0, p.cq0, p.cq0)
    assert qp.state is QPState.RESET


def test_connect_brings_both_to_rts(pair):
    assert pair.qp0.state is QPState.RTS
    assert pair.qp1.state is QPState.RTS
    assert pair.qp0.dest_node == 1
    assert pair.qp0.dest_qp_num == pair.qp1.qp_num


def test_illegal_transition_rejected(env):
    p = Pair(env)
    qp = verbs.ibv_create_qp(p.ctx0, p.pd0, p.cq0, p.cq0)
    with pytest.raises(QPStateError):
        qp.modify(QPState.RTS)  # RESET -> RTS skips INIT/RTR


def test_post_send_requires_rts(env):
    p = Pair(env)
    qp = verbs.ibv_create_qp(p.ctx0, p.pd0, p.cq0, p.cq0)
    wr = SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(p.send_mr.addr, 8, p.send_mr.lkey)],
        remote_addr=p.recv_mr.addr,
        rkey=p.recv_mr.rkey,
        imm_data=0,
    )
    with pytest.raises(QPStateError):
        qp.post_send(wr)


def test_post_recv_allowed_from_init(env):
    p = Pair(env)
    qp = verbs.ibv_create_qp(p.ctx0, p.pd0, p.cq0, p.cq0)
    qp.to_init()
    qp.post_recv(RecvWR(wr_id=1))
    assert qp.posted_recvs == 1


def test_post_recv_rejected_in_reset(env):
    p = Pair(env)
    qp = verbs.ibv_create_qp(p.ctx0, p.pd0, p.cq0, p.cq0)
    with pytest.raises(QPStateError):
        qp.post_recv(RecvWR(wr_id=1))


def test_outstanding_rdma_limit_enforced(pair):
    """The ConnectX-5 limit of 16 concurrent RDMA WRs per QP."""
    limit = pair.fabric.config.nic.max_outstanding_rdma
    assert limit == 16
    for i in range(limit):
        pair.qp1.post_recv(RecvWR(wr_id=i))
        pair.qp0.post_send(make_write(pair, wr_id=i))
    with pytest.raises(QPOverflowError):
        pair.qp0.post_send(make_write(pair, wr_id=99))


def test_outstanding_slots_freed_after_ack(pair):
    limit = pair.fabric.config.nic.max_outstanding_rdma
    for i in range(limit):
        pair.qp1.post_recv(RecvWR(wr_id=i))
        pair.qp0.post_send(make_write(pair, wr_id=i))
    pair.env.run()
    assert pair.qp0.outstanding_rdma == 0
    # capacity restored
    pair.qp1.post_recv(RecvWR(wr_id=100))
    pair.qp0.post_send(make_write(pair, wr_id=100))
    pair.env.run()


def test_send_queue_depth_limit(env):
    p = Pair(env)
    qp = verbs.ibv_create_qp(p.ctx0, p.pd0, p.cq0, p.cq0, max_send_wr=2)
    qp2 = verbs.ibv_create_qp(p.ctx1, p.pd1, p.cq1, p.cq1)
    verbs.connect_qps(qp, qp2)
    wr = SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE,
        sg_list=[SGE(p.send_mr.addr, 8, p.send_mr.lkey)],
        remote_addr=p.recv_mr.addr,
        rkey=p.recv_mr.rkey,
    )
    qp.post_send(wr)
    qp.post_send(wr)
    # Third post exceeds SQ depth before the engine drains anything.
    with pytest.raises(QPOverflowError):
        qp.post_send(wr)


def test_recv_queue_depth_limit(env):
    p = Pair(env)
    qp = verbs.ibv_create_qp(p.ctx0, p.pd0, p.cq0, p.cq0, max_recv_wr=2)
    qp.to_init()
    qp.post_recv(RecvWR(wr_id=1))
    qp.post_recv(RecvWR(wr_id=2))
    with pytest.raises(QPOverflowError):
        qp.post_recv(RecvWR(wr_id=3))


def test_consume_recv_empty_raises(pair):
    with pytest.raises(QPStateError, match="receiver-not-ready"):
        pair.qp1.consume_recv()


def test_imm_required_for_with_imm_opcode(pair):
    with pytest.raises(ValueError):
        SendWR(
            wr_id=1,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(pair.send_mr.addr, 8, pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr,
            rkey=pair.recv_mr.rkey,
        )


def test_imm_must_fit_be32(pair):
    with pytest.raises(ValueError):
        SendWR(
            wr_id=1,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(pair.send_mr.addr, 8, pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr,
            rkey=pair.recv_mr.rkey,
            imm_data=2**32,
        )


def test_empty_sg_list_rejected():
    with pytest.raises(ValueError):
        SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sg_list=[])


def test_total_length_sums_the_gather_list_once(pair):
    sges = [SGE(pair.send_mr.addr, 8, pair.send_mr.lkey),
            SGE(pair.send_mr.addr + 8, 0, pair.send_mr.lkey),
            SGE(pair.send_mr.addr + 8, 24, pair.send_mr.lkey)]
    wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sg_list=sges,
                remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey)
    assert wr.total_length == 32
    pair.qp0.post_send(wr)
    assert pair.qp0.bytes_sent == 32


def test_slot_waiters_wake_oldest_first(pair):
    limit = pair.qp0.nic.config.nic.max_outstanding_rdma
    pair.qp0.outstanding_rdma = limit
    woken = []
    for tag in range(3):
        pair.qp0.wait_rdma_slot().callbacks.append(
            lambda _event, tag=tag: woken.append(tag))
    pair.qp0.notify_slot_free()          # still full: nobody wakes
    pair.env.run()
    assert woken == []
    pair.qp0.release_rdma_slot()
    pair.env.run()
    assert woken == [0, 1, 2]


def test_qp_numbers_unique(pair):
    qps = [verbs.ibv_create_qp(pair.ctx0, pair.pd0, pair.cq0, pair.cq0)
           for _ in range(10)]
    nums = [qp.qp_num for qp in qps]
    assert len(set(nums)) == 10
