"""End-to-end RDMA-write tests: data movement, completions, protection."""

import numpy as np
import pytest

from repro.errors import ProtectionError
from repro.ib import verbs
from repro.ib.constants import ACCESS_LOCAL, Opcode, WCOpcode, WCStatus
from repro.ib.wr import SGE, RecvWR, SendWR
from tests.test_ib.conftest import Pair


def post_write(pair, offset=0, length=256, imm=0xABCD, wr_id=7):
    pair.qp1.post_recv(RecvWR(wr_id=wr_id))
    pair.qp0.post_send(SendWR(
        wr_id=wr_id,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr + offset, length, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr + offset,
        rkey=pair.recv_mr.rkey,
        imm_data=imm,
    ))


def test_rdma_write_moves_bytes(pair):
    pair.send_buf.fill_pattern(seed=5)
    post_write(pair, offset=0, length=4096)
    pair.env.run()
    assert np.array_equal(pair.recv_buf.data, pair.send_buf.data)


def test_rdma_write_partial_range(pair):
    pair.send_buf.fill_pattern(seed=9)
    post_write(pair, offset=1024, length=512)
    pair.env.run()
    expected = np.zeros(4096, dtype=np.uint8)
    expected[1024:1536] = pair.send_buf.data[1024:1536]
    assert np.array_equal(pair.recv_buf.data, expected)


def test_receiver_gets_imm_and_length(pair):
    post_write(pair, length=128, imm=0xDEADBEEF, wr_id=42)
    pair.env.run()
    wcs = pair.cq1.poll(8)
    assert len(wcs) == 1
    wc = wcs[0]
    assert wc.status is WCStatus.SUCCESS
    assert wc.opcode is WCOpcode.RECV_RDMA_WITH_IMM
    assert wc.imm_data == 0xDEADBEEF
    assert wc.byte_len == 128
    assert wc.wr_id == 42


def test_sender_gets_completion(pair):
    post_write(pair, length=128, wr_id=11)
    pair.env.run()
    wcs = pair.cq0.poll(8)
    assert len(wcs) == 1
    assert wcs[0].opcode is WCOpcode.RDMA_WRITE
    assert wcs[0].wr_id == 11
    assert wcs[0].ok


def test_unsignaled_send_no_sender_completion(pair):
    pair.qp1.post_recv(RecvWR(wr_id=1))
    pair.qp0.post_send(SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr,
        rkey=pair.recv_mr.rkey,
        imm_data=0,
        signaled=False,
    ))
    pair.env.run()
    assert pair.cq0.poll(8) == []
    assert len(pair.cq1.poll(8)) == 1


def test_plain_rdma_write_consumes_no_recv(pair):
    """RDMA_WRITE (no imm) must not need or consume an RQ entry."""
    pair.send_buf.fill_pattern(seed=2)
    pair.qp0.post_send(SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE,
        sg_list=[SGE(pair.send_mr.addr, 256, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr,
        rkey=pair.recv_mr.rkey,
    ))
    pair.env.run()
    assert np.array_equal(pair.recv_buf.data[:256], pair.send_buf.data[:256])
    assert pair.cq1.poll(8) == []  # silent at receiver


def test_gather_list_concatenates(pair):
    """Multi-SGE send gathers non-contiguous local ranges."""
    pair.send_buf.fill_pattern(seed=3)
    pair.qp1.post_recv(RecvWR(wr_id=1))
    pair.qp0.post_send(SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[
            SGE(pair.send_mr.addr + 0, 64, pair.send_mr.lkey),
            SGE(pair.send_mr.addr + 1024, 64, pair.send_mr.lkey),
        ],
        remote_addr=pair.recv_mr.addr,
        rkey=pair.recv_mr.rkey,
        imm_data=0,
    ))
    pair.env.run()
    expected = np.concatenate([
        pair.send_buf.data[0:64], pair.send_buf.data[1024:1088]])
    assert np.array_equal(pair.recv_buf.data[:128], expected)


def test_bad_lkey_rejected_at_post(pair):
    with pytest.raises(ProtectionError):
        pair.qp0.post_send(SendWR(
            wr_id=1,
            opcode=Opcode.RDMA_WRITE,
            sg_list=[SGE(pair.send_mr.addr, 64, 0xBAD)],
            remote_addr=pair.recv_mr.addr,
            rkey=pair.recv_mr.rkey,
        ))


def test_local_range_outside_mr_rejected(pair):
    with pytest.raises(ProtectionError):
        pair.qp0.post_send(SendWR(
            wr_id=1,
            opcode=Opcode.RDMA_WRITE,
            sg_list=[SGE(pair.send_mr.addr + 4000, 1024, pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr,
            rkey=pair.recv_mr.rkey,
        ))


def test_remote_write_without_permission_faults(env):
    p = Pair(env)
    # recv buffer registered WITHOUT remote write access
    from repro.mem import Buffer

    plain = Buffer(4096)
    mr = verbs.ibv_reg_mr(p.pd1, plain, ACCESS_LOCAL)
    p.qp1.post_recv(RecvWR(wr_id=1))
    p.qp0.post_send(SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(p.send_mr.addr, 64, p.send_mr.lkey)],
        remote_addr=mr.addr,
        rkey=mr.rkey,
        imm_data=0,
    ))
    with pytest.raises(ProtectionError):
        env.run()


def test_rnr_when_no_recv_posted(pair):
    """WRITE_WITH_IMM with an empty RQ is a receiver-not-ready fault."""
    from repro.errors import QPStateError

    pair.qp0.post_send(SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr,
        rkey=pair.recv_mr.rkey,
        imm_data=0,
    ))
    with pytest.raises(QPStateError, match="receiver-not-ready"):
        pair.env.run()


def test_per_qp_ordering_preserved(pair):
    """Messages on one QP are delivered in post order."""
    for i in range(8):
        pair.qp1.post_recv(RecvWR(wr_id=i))
    for i in range(8):
        pair.qp0.post_send(SendWR(
            wr_id=i,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr,
            rkey=pair.recv_mr.rkey,
            imm_data=i,
        ))
    pair.env.run()
    wcs = pair.cq1.poll(16)
    assert [wc.imm_data for wc in wcs] == list(range(8))
    assert [wc.wr_id for wc in wcs] == list(range(8))


def test_zero_length_write_with_imm(pair):
    """Pure-signal writes (0 bytes + immediate) work."""
    pair.qp1.post_recv(RecvWR(wr_id=5))
    pair.qp0.post_send(SendWR(
        wr_id=5,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, 0, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr,
        rkey=pair.recv_mr.rkey,
        imm_data=77,
    ))
    pair.env.run()
    wcs = pair.cq1.poll(4)
    assert len(wcs) == 1
    assert wcs[0].imm_data == 77
    assert wcs[0].byte_len == 0


def test_phantom_buffers_time_without_data(env):
    """Unbacked buffers produce identical timing, no data movement."""
    p = Pair(env, backed=False)
    p.qp1.post_recv(RecvWR(wr_id=1))
    p.qp0.post_send(SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(p.send_mr.addr, 4096, p.send_mr.lkey)],
        remote_addr=p.recv_mr.addr,
        rkey=p.recv_mr.rkey,
        imm_data=1,
    ))
    env.run()
    wcs = p.cq1.poll(4)
    assert len(wcs) == 1
    assert wcs[0].byte_len == 4096


def test_deregistered_mr_rejected(pair):
    verbs.ibv_dereg_mr(pair.send_mr)
    with pytest.raises(ProtectionError):
        pair.qp0.post_send(SendWR(
            wr_id=1,
            opcode=Opcode.RDMA_WRITE,
            sg_list=[SGE(pair.send_mr.addr, 64, pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr,
            rkey=pair.recv_mr.rkey,
        ))
