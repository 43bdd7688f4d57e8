"""Tests for the functional ibv_* facade."""

import numpy as np
import pytest

from repro.ib import verbs
from repro.ib.constants import ACCESS_LOCAL, ACCESS_REMOTE_WRITE, Opcode, QPState
from repro.ib.fabric import Fabric
from repro.ib.wr import SGE, RecvWR, SendWR
from repro.mem import Buffer
from repro.sim import Environment


@pytest.fixture
def fabric():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node(0)
    fabric.add_node(1)
    return fabric


def test_open_device_binds_node(fabric):
    ctx = verbs.ibv_open_device(fabric, 1)
    assert ctx.node_id == 1
    assert ctx.nic is fabric.nic_at(1)


def test_alloc_pd_registers_with_context(fabric):
    ctx = verbs.ibv_open_device(fabric, 0)
    pd = verbs.ibv_alloc_pd(ctx)
    assert pd.context is ctx


def test_reg_and_dereg_mr(fabric):
    ctx = verbs.ibv_open_device(fabric, 0)
    pd = verbs.ibv_alloc_pd(ctx)
    buf = Buffer(1024)
    mr = verbs.ibv_reg_mr(pd, buf, ACCESS_LOCAL)
    assert mr.valid
    assert mr.length == 1024
    assert pd.find_mr_by_lkey(mr.lkey) is mr
    verbs.ibv_dereg_mr(mr)
    assert not mr.valid


def test_create_cq_capacity(fabric):
    ctx = verbs.ibv_open_device(fabric, 0)
    cq = verbs.ibv_create_cq(ctx, capacity=32)
    assert cq.capacity == 32
    assert cq.context is ctx


def test_connect_qps_full_transition(fabric):
    ctx0 = verbs.ibv_open_device(fabric, 0)
    ctx1 = verbs.ibv_open_device(fabric, 1)
    pd0, pd1 = verbs.ibv_alloc_pd(ctx0), verbs.ibv_alloc_pd(ctx1)
    cq0, cq1 = verbs.ibv_create_cq(ctx0), verbs.ibv_create_cq(ctx1)
    qa = verbs.ibv_create_qp(ctx0, pd0, cq0, cq0)
    qb = verbs.ibv_create_qp(ctx1, pd1, cq1, cq1)
    assert qa.state is QPState.RESET
    verbs.connect_qps(qa, qb)
    assert qa.state is QPState.RTS
    assert qb.state is QPState.RTS
    assert qa.dest_qp_num == qb.qp_num
    assert qb.dest_qp_num == qa.qp_num


def test_post_and_poll_through_facade(fabric):
    env = fabric.env
    ctx0 = verbs.ibv_open_device(fabric, 0)
    ctx1 = verbs.ibv_open_device(fabric, 1)
    pd0, pd1 = verbs.ibv_alloc_pd(ctx0), verbs.ibv_alloc_pd(ctx1)
    cq0, cq1 = verbs.ibv_create_cq(ctx0), verbs.ibv_create_cq(ctx1)
    qa = verbs.ibv_create_qp(ctx0, pd0, cq0, cq0)
    qb = verbs.ibv_create_qp(ctx1, pd1, cq1, cq1)
    verbs.connect_qps(qa, qb)
    sbuf, rbuf = Buffer(512), Buffer(512)
    sbuf.fill_pattern(seed=9)
    smr = verbs.ibv_reg_mr(pd0, sbuf, ACCESS_LOCAL)
    rmr = verbs.ibv_reg_mr(pd1, rbuf, ACCESS_LOCAL | ACCESS_REMOTE_WRITE)
    verbs.ibv_post_recv(qb, RecvWR(wr_id=1))
    verbs.ibv_post_send(qa, SendWR(
        wr_id=1, opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(smr.addr, 512, smr.lkey)],
        remote_addr=rmr.addr, rkey=rmr.rkey, imm_data=3))
    env.run()
    assert np.array_equal(rbuf.data, sbuf.data)
    wcs = verbs.ibv_poll_cq(cq1, 4)
    assert len(wcs) == 1
    assert wcs[0].imm_data == 3
