"""Every verbs check on the per-message path, one test each.

The send and delivery stages are written for speed (no helper hops per
WR), so each protection, bounds and queue check they must keep is pinned
here: drop the check and its test fails.
"""

import pytest

from repro.errors import ProtectionError
from repro.ib import verbs
from repro.ib.constants import (
    ACCESS_LOCAL, ACCESS_REMOTE_READ, ACCESS_REMOTE_WRITE, Opcode, WCOpcode,
    WCStatus)
from repro.ib.cq import CompletionQueue
from repro.ib.wr import SGE, RecvWR, SendWR, WorkCompletion
from repro.mem import Buffer
from tests.test_ib.conftest import Pair


def _write(pair, sge=None, remote_addr=None, rkey=None, length=64):
    pair.qp1.post_recv(RecvWR(wr_id=1))
    pair.qp0.post_send(SendWR(
        wr_id=1, opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[sge or SGE(pair.send_mr.addr, length, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr if remote_addr is None else remote_addr,
        rkey=pair.recv_mr.rkey if rkey is None else rkey, imm_data=0))


# -- post_send: the local list ---------------------------------------------


def test_post_send_refuses_an_sge_below_its_mr(pair):
    mr = pair.send_mr
    with pytest.raises(ProtectionError, match="outside MR"):
        _write(pair, SGE(mr.addr - 1, 64, mr.lkey))
    assert pair.qp0.outstanding_rdma == 0 and pair.qp0.sq_depth == 0


def test_post_send_refuses_a_key_of_another_mr(pair):
    # A valid lkey of this PD, naming an MR the SGE does not lie in.
    other = verbs.ibv_reg_mr(pair.pd0, Buffer(4096), ACCESS_LOCAL)
    with pytest.raises(ProtectionError, match="outside MR"):
        _write(pair, SGE(pair.send_mr.addr, 64, other.lkey))
    # A key from the peer's PD is not found at all.
    with pytest.raises(ProtectionError, match="no valid MR"):
        _write(pair, SGE(pair.send_mr.addr, 64, pair.recv_mr.lkey))
    assert pair.qp0.outstanding_rdma == 0


def test_a_zero_length_sge_is_not_checked(pair):
    _write(pair, SGE(0, 0, 0))          # no MR named, nothing gathered
    pair.env.run()
    assert pair.cq0.poll(1)[0].ok


# -- delivery: the remote range ---------------------------------------------


def test_delivery_refuses_a_bad_rkey(pair):
    _write(pair, rkey=pair.recv_mr.rkey + 1000)
    with pytest.raises(ProtectionError, match="no valid MR with rkey"):
        pair.env.run()


def test_delivery_refuses_a_write_past_the_mr(pair):
    # The rkey finds the MR; the write's last bytes fall off its end.
    mr = pair.recv_mr
    _write(pair, remote_addr=mr.addr + mr.length - 32)
    with pytest.raises(ProtectionError, match="remote write .* outside MR"):
        pair.env.run()


def test_delivery_refuses_a_write_below_the_mr(pair):
    _write(pair, remote_addr=pair.recv_mr.addr - 64)
    with pytest.raises(ProtectionError, match="outside MR"):
        pair.env.run()


def test_delivery_refuses_a_deregistered_target(pair):
    _write(pair)
    verbs.ibv_dereg_mr(pair.recv_mr)    # while the write is in flight
    with pytest.raises(ProtectionError, match="no valid MR with rkey"):
        pair.env.run()


def test_delivery_checks_phantom_payloads_too(env):
    pair = Pair(env, backed=False)
    _write(pair, remote_addr=pair.recv_mr.addr + pair.recv_mr.length - 32)
    with pytest.raises(ProtectionError, match="outside MR"):
        env.run()


@pytest.mark.parametrize("access", [ACCESS_REMOTE_WRITE, ACCESS_REMOTE_READ])
def test_read_responder_checks_key_access_and_range(env, access):
    pair = Pair(env)
    src = verbs.ibv_reg_mr(pair.pd0, Buffer(4096), ACCESS_LOCAL | access)
    pair.qp1.post_send(SendWR(
        wr_id=1, opcode=Opcode.RDMA_READ,
        sg_list=[SGE(pair.recv_mr.addr, 64, pair.recv_mr.lkey)],
        remote_addr=src.addr + 4096 - 32, rkey=src.rkey))
    match = ("outside MR" if access == ACCESS_REMOTE_READ
             else "not registered for remote read")
    with pytest.raises(ProtectionError, match=match):
        env.run()


# -- work requests -------------------------------------------------------


def test_imm_data_must_not_be_negative():
    with pytest.raises(ValueError, match="imm_data"):
        SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE_WITH_IMM,
               sg_list=[SGE(0, 0, 0)], imm_data=-1)


def test_imm_data_bounds_are_inclusive():
    for imm in (0, 2**32 - 1):
        assert SendWR(wr_id=1, opcode=Opcode.SEND_WITH_IMM,
                      sg_list=[SGE(0, 0, 0)], imm_data=imm).imm_data == imm


def test_sge_length_is_not_negative():
    with pytest.raises(ValueError, match="SGE length"):
        SGE(0, -1, 0)


def test_require_success_raises_on_a_failed_completion():
    from repro.errors import CompletionError

    good = WorkCompletion(1, WCStatus.SUCCESS, WCOpcode.RDMA_WRITE, qp_num=3)
    assert good.require_success() is good
    bad = WorkCompletion(2, WCStatus.WR_FLUSH_ERR, WCOpcode.RDMA_WRITE,
                         qp_num=3)
    with pytest.raises(CompletionError, match="wr_id=2"):
        bad.require_success()


# -- completion queues ---------------------------------------------------


def _wc(wr_id):
    return WorkCompletion(wr_id, WCStatus.SUCCESS, WCOpcode.RECV, qp_num=1)


@pytest.mark.parametrize("n", [0, -1])
def test_poll_needs_a_positive_batch(n):
    cq = CompletionQueue(None)
    cq.push(_wc(1))
    with pytest.raises(ValueError, match="max_entries"):
        cq.poll(n)
    assert len(cq) == 1                  # a refused poll takes nothing


def test_poll_takes_at_most_the_batch_oldest_first():
    cq = CompletionQueue(None)
    for i in range(5):
        cq.push(_wc(i))
    assert [wc.wr_id for wc in cq.poll(3)] == [0, 1, 2]
    assert [wc.wr_id for wc in cq.poll(3)] == [3, 4]
    assert cq.poll(3) == [] and len(cq) == 0


def test_overflow_drops_and_counts_without_notifying():
    cq = CompletionQueue(None, capacity=2)
    kicks = []
    cq.on_push.append(lambda: kicks.append(1))
    for i in range(4):
        cq.push(_wc(i))
    assert cq.overflows == 2 and cq.total_completions == 2
    assert len(kicks) == 2 and [wc.wr_id for wc in cq.poll(4)] == [0, 1]
    cq.push(_wc(9))                      # room again
    assert cq.overflows == 2 and cq.total_completions == 3


def test_cq_capacity_must_be_positive():
    with pytest.raises(ValueError, match="capacity"):
        CompletionQueue(None, capacity=0)
    assert repr(CompletionQueue(None, capacity=3)).endswith("depth=0/3>")


# -- memory regions ------------------------------------------------------


def test_mr_checks_name_the_failed_rule(pair):
    mr = pair.recv_mr
    assert repr(mr).startswith("<MR lkey=")
    with pytest.raises(ProtectionError, match="bad lkey"):
        mr.check_local(mr.addr, 8, mr.rkey)
    with pytest.raises(ProtectionError, match="bad rkey"):
        mr.check_remote_write(mr.addr, 8, mr.lkey)
    with pytest.raises(ProtectionError, match="bad rkey"):
        mr.check_remote_read(mr.addr, 8, mr.lkey)
    mr.check_remote_write(mr.addr, mr.length, mr.rkey)      # the whole MR
    mr.deregister()
    for check in (lambda: mr.check_local(mr.addr, 8, mr.lkey),
                  lambda: mr.check_remote_write(mr.addr, 8, mr.rkey),
                  lambda: mr.check_remote_read(mr.addr, 8, mr.rkey)):
        with pytest.raises(ProtectionError, match="deregistered"):
            check()
