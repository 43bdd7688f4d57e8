"""Conservation and accounting invariants across random traffic."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ib.constants import Opcode
from repro.ib.wr import SGE, RecvWR, SendWR
from repro.sim import Environment
from tests.test_ib.conftest import Pair


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 20),
                   min_size=1, max_size=12),
)
@settings(max_examples=20, deadline=None)
def test_bytes_sent_equal_bytes_received(sizes):
    """Every byte leaving an egress port lands on the peer's ingress."""
    env = Environment()
    total = sum(sizes)
    pair = Pair(env, bufsize=total, backed=False)
    offset = 0
    for i, size in enumerate(sizes):
        pair.qp1.post_recv(RecvWR(wr_id=i))
        pair.qp0.post_send(SendWR(
            wr_id=i,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(pair.send_mr.addr + offset, size,
                         pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr + offset,
            rkey=pair.recv_mr.rkey,
            imm_data=i,
        ))
        offset += size
    env.run()
    nic0 = pair.fabric.nic_at(0)
    nic1 = pair.fabric.nic_at(1)
    assert nic0.bytes_transmitted == total
    assert nic1.ingress.bytes_received == total
    assert nic1.messages_delivered == len(sizes)
    wcs = pair.cq1.poll(64)
    assert sum(wc.byte_len for wc in wcs) == total


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1 << 18),
                   min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=15, deadline=None)
def test_payload_integrity_random_layout(sizes, seed):
    """Random message sizes at random offsets: bytes land intact."""
    env = Environment()
    total = sum(sizes)
    pair = Pair(env, bufsize=total, backed=True)
    pair.send_buf.fill_pattern(seed=seed)
    offset = 0
    for i, size in enumerate(sizes):
        pair.qp1.post_recv(RecvWR(wr_id=i))
        pair.qp0.post_send(SendWR(
            wr_id=i,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(pair.send_mr.addr + offset, size,
                         pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr + offset,
            rkey=pair.recv_mr.rkey,
            imm_data=i,
        ))
        offset += size
    env.run()
    assert np.array_equal(pair.recv_buf.data, pair.send_buf.data)


@given(n=st.integers(min_value=1, max_value=16))
@settings(max_examples=10, deadline=None)
def test_completions_conserved(n):
    """One send completion and one recv completion per signaled WR."""
    env = Environment()
    pair = Pair(env, bufsize=4096, backed=False)
    for i in range(n):
        pair.qp1.post_recv(RecvWR(wr_id=i))
        pair.qp0.post_send(SendWR(
            wr_id=i,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(pair.send_mr.addr, 256, pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr,
            rkey=pair.recv_mr.rkey,
            imm_data=i,
        ))
    env.run()
    assert len(pair.cq0.poll(64)) == n
    assert len(pair.cq1.poll(64)) == n
    assert pair.cq0.overflows == 0
    assert pair.cq1.overflows == 0
