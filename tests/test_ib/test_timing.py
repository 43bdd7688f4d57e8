"""Timing-model tests: rates, latency, QP concurrency, contention."""

import pytest

from repro.config import NIAGARA
from repro.ib import verbs
from repro.ib.constants import ACCESS_LOCAL, ACCESS_REMOTE_WRITE, Opcode
from repro.ib.wr import SGE, RecvWR, SendWR
from repro.mem import Buffer
from repro.sim import Environment
from repro.units import MiB, KiB
from tests.test_ib.conftest import Pair


def completion_time(env, pair, nbytes):
    """Virtual time for one RDMA write of nbytes to complete at receiver."""
    pair.qp1.post_recv(RecvWR(wr_id=1))
    pair.qp0.post_send(SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(pair.send_mr.addr, nbytes, pair.send_mr.lkey)],
        remote_addr=pair.recv_mr.addr,
        rkey=pair.recv_mr.rkey,
        imm_data=0,
    ))
    env.run()
    wcs = pair.cq1.poll(4)
    assert len(wcs) == 1
    return wcs[0].completed_at


def test_small_message_latency_about_one_microsecond(env):
    pair = Pair(env, bufsize=4096, backed=False)
    t = completion_time(env, pair, 8)
    # t_wqe + prop latency + t_cqe + packet cost: sub-2us for 8 bytes
    assert 0.5e-6 < t < 2.5e-6


def test_large_message_limited_by_qp_rate(env):
    """A single QP tops out at qp_rate, below line rate (Fig. 7 driver)."""
    pair = Pair(env, bufsize=16 * MiB, backed=False)
    t = completion_time(env, pair, 16 * MiB)
    nominal = 16 * MiB / NIAGARA.nic.qp_rate
    assert t == pytest.approx(nominal, rel=0.15)


def test_multiple_qps_reach_line_rate(env):
    """Striping one transfer across many QPs approaches line rate."""
    fabric_pair = Pair(env, bufsize=16 * MiB, backed=False)
    n_qps = 8
    total = 16 * MiB
    share = total // n_qps
    qps0, qps1 = [], []
    for _ in range(n_qps):
        qa = verbs.ibv_create_qp(fabric_pair.ctx0, fabric_pair.pd0,
                                 fabric_pair.cq0, fabric_pair.cq0)
        qb = verbs.ibv_create_qp(fabric_pair.ctx1, fabric_pair.pd1,
                                 fabric_pair.cq1, fabric_pair.cq1)
        verbs.connect_qps(qa, qb)
        qps0.append(qa)
        qps1.append(qb)
    for i, (qa, qb) in enumerate(zip(qps0, qps1)):
        qb.post_recv(RecvWR(wr_id=i))
        qa.post_send(SendWR(
            wr_id=i,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(fabric_pair.send_mr.addr + i * share, share,
                         fabric_pair.send_mr.lkey)],
            remote_addr=fabric_pair.recv_mr.addr + i * share,
            rkey=fabric_pair.recv_mr.rkey,
            imm_data=i,
        ))
    env.run()
    wcs = fabric_pair.cq1.poll(64)
    assert len(wcs) == n_qps
    t_striped = max(wc.completed_at for wc in wcs)
    line_nominal = total / NIAGARA.nic.line_rate
    qp_nominal = total / NIAGARA.nic.qp_rate
    # striped time should be near the line-rate bound, clearly better
    # than what a single QP could do
    assert t_striped < 0.95 * qp_nominal
    assert t_striped > 0.95 * line_nominal


def test_wire_is_shared_between_qps(env):
    """Two QPs pushing concurrently split the line rate."""
    pair = Pair(env, bufsize=32 * MiB, backed=False)
    qa = verbs.ibv_create_qp(pair.ctx0, pair.pd0, pair.cq0, pair.cq0)
    qb = verbs.ibv_create_qp(pair.ctx1, pair.pd1, pair.cq1, pair.cq1)
    verbs.connect_qps(qa, qb)
    half = 16 * MiB
    for i, qp in enumerate((pair.qp0, qa)):
        qb_side = pair.qp1 if i == 0 else qb
        qb_side.post_recv(RecvWR(wr_id=i))
        qp.post_send(SendWR(
            wr_id=i,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(pair.send_mr.addr + i * half, half, pair.send_mr.lkey)],
            remote_addr=pair.recv_mr.addr + i * half,
            rkey=pair.recv_mr.rkey,
            imm_data=i,
        ))
    env.run()
    wcs = pair.cq1.poll(8)
    t_both = max(wc.completed_at for wc in wcs)
    # 32 MiB total through one wire: bounded below by line rate
    assert t_both >= 32 * MiB / NIAGARA.nic.line_rate * 0.95


def test_latency_override(env):
    pair = Pair(env, backed=False)
    t_near = completion_time(env, pair, 8)
    env2 = Environment()
    pair2 = Pair(env2, backed=False)
    pair2.fabric.set_latency(0, 1, 50e-6)
    t_far = completion_time(env2, pair2, 8)
    assert t_far > t_near + 40e-6


def test_loopback_faster_than_wire(env):
    """Same-node transfers skip the wire."""
    from repro.ib.fabric import Fabric

    fabric = Fabric(env)
    fabric.add_node(0)
    ctx = verbs.ibv_open_device(fabric, 0)
    pd = verbs.ibv_alloc_pd(ctx)
    cq = verbs.ibv_create_cq(ctx)
    qa = verbs.ibv_create_qp(ctx, pd, cq, cq)
    qb = verbs.ibv_create_qp(ctx, pd, cq, cq)
    verbs.connect_qps(qa, qb)
    sbuf, rbuf = Buffer(4 * KiB), Buffer(4 * KiB)
    smr = verbs.ibv_reg_mr(pd, sbuf, ACCESS_LOCAL)
    rmr = verbs.ibv_reg_mr(pd, rbuf, ACCESS_LOCAL | ACCESS_REMOTE_WRITE)
    sbuf.fill_pattern(seed=1)
    qb.post_recv(RecvWR(wr_id=1))
    qa.post_send(SendWR(
        wr_id=1,
        opcode=Opcode.RDMA_WRITE_WITH_IMM,
        sg_list=[SGE(smr.addr, 4 * KiB, smr.lkey)],
        remote_addr=rmr.addr,
        rkey=rmr.rkey,
        imm_data=0,
    ))
    env.run()
    wcs = cq.poll(8)
    recv_wcs = [wc for wc in wcs if wc.imm_data is not None]
    assert len(recv_wcs) == 1
    assert recv_wcs[0].completed_at < 2e-6
    import numpy as np

    assert np.array_equal(rbuf.data, sbuf.data)


def test_ingress_contention_serializes(env):
    """Two senders to one receiver share its ingress port."""
    from repro.ib.fabric import Fabric

    fabric = Fabric(env)
    for n in range(3):
        fabric.add_node(n)
    ctxs = [verbs.ibv_open_device(fabric, n) for n in range(3)]
    pds = [verbs.ibv_alloc_pd(c) for c in ctxs]
    cqs = [verbs.ibv_create_cq(c) for c in ctxs]
    size = 8 * MiB
    rbuf = Buffer(2 * size, backed=False)
    rmr = verbs.ibv_reg_mr(pds[2], rbuf, ACCESS_LOCAL | ACCESS_REMOTE_WRITE)
    for sender in (0, 1):
        sbuf = Buffer(size, backed=False)
        smr = verbs.ibv_reg_mr(pds[sender], sbuf, ACCESS_LOCAL)
        qs = verbs.ibv_create_qp(ctxs[sender], pds[sender], cqs[sender], cqs[sender])
        qr = verbs.ibv_create_qp(ctxs[2], pds[2], cqs[2], cqs[2])
        verbs.connect_qps(qs, qr)
        qr.post_recv(RecvWR(wr_id=sender))
        qs.post_send(SendWR(
            wr_id=sender,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(smr.addr, size, smr.lkey)],
            remote_addr=rmr.addr + sender * size,
            rkey=rmr.rkey,
            imm_data=sender,
        ))
    env.run()
    wcs = cqs[2].poll(8)
    assert len(wcs) == 2
    t_done = max(wc.completed_at for wc in wcs)
    # 16 MiB into one ingress port: at least line-rate serialization
    assert t_done >= 2 * size / NIAGARA.nic.line_rate * 0.95


def test_nic_statistics(env):
    pair = Pair(env, bufsize=1 * MiB, backed=False)
    completion_time(env, pair, 1 * MiB)
    nic0 = pair.fabric.nic_at(0)
    nic1 = pair.fabric.nic_at(1)
    assert nic0.wqes_processed == 1
    assert nic0.bytes_transmitted == 1 * MiB
    assert nic1.messages_delivered == 1
