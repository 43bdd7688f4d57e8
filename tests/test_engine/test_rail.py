"""Rail: ordered QP sets, striped and round-robin scheduling, multi-port."""

import pytest

from repro.config import NIAGARA
from repro.engine import Rail, RailPolicy, build_rails
from repro.ib import verbs
from repro.ib.constants import QPState
from repro.ib.fabric import Fabric


class FakeQP:
    def __init__(self, name, slots=1):
        self.name = name
        self.outstanding_rdma = 0
        self.max_outstanding_rdma = slots
        self.state = QPState.RTS

    def wait_rdma_slot(self):  # pragma: no cover - not reached in tests
        raise AssertionError("should not wait with a free slot")


def test_rail_needs_at_least_one_qp():
    with pytest.raises(ValueError):
        Rail([])


def test_striped_requires_key():
    rail = Rail([FakeQP("a"), FakeQP("b")])
    with pytest.raises(ValueError):
        rail.select()
    with pytest.raises(ValueError):
        rail.peek()


def test_striped_is_deterministic():
    qps = [FakeQP("a"), FakeQP("b"), FakeQP("c")]
    rail = Rail(qps, RailPolicy.STRIPED)
    assert rail.select(0) is qps[0]
    assert rail.select(4) is qps[1]
    assert rail.select(4) is qps[1]  # no hidden state
    assert rail.peek(5) is qps[2]


def test_round_robin_advances_on_select_not_peek():
    qps = [FakeQP("a"), FakeQP("b")]
    rail = Rail(qps, RailPolicy.ROUND_ROBIN)
    assert rail.peek() is qps[0]
    assert rail.peek() is qps[0]
    assert rail.select() is qps[0]
    assert rail.peek() is qps[1]
    assert rail.select() is qps[1]
    assert rail.select() is qps[0]


def test_sequence_protocol():
    qps = [FakeQP("a"), FakeQP("b")]
    rail = Rail(qps)
    assert len(rail) == 2
    assert list(rail) == qps
    assert rail[1] is qps[1]


def test_acquire_returns_selected_qp(env):
    qps = [FakeQP("a"), FakeQP("b")]
    rail = Rail(qps, RailPolicy.ROUND_ROBIN)

    def prog(env):
        first = yield from rail.acquire()
        second = yield from rail.acquire()
        return (first, second)

    p = env.process(prog(env))
    env.run()
    assert p.value == (qps[0], qps[1])


def test_build_rails_binds_ports_and_orders_qps(env):
    fabric = Fabric(env, NIAGARA)
    fabric.add_node(0)
    fabric.add_node(1)
    ctx0 = verbs.ibv_open_device(fabric, 0)
    ctx1 = verbs.ibv_open_device(fabric, 1)
    pd0, pd1 = verbs.ibv_alloc_pd(ctx0), verbs.ibv_alloc_pd(ctx1)
    cq0, cq1 = verbs.ibv_create_cq(ctx0), verbs.ibv_create_cq(ctx1)
    send_rails, recv_rails = build_rails(
        ctx0, ctx1, pd0, pd1, cq0, cq1, n_qps=2, n_ports=2)
    assert len(send_rails) == len(recv_rails) == 2
    for port, (srail, rrail) in enumerate(zip(send_rails, recv_rails)):
        assert len(srail) == len(rrail) == 2
        for qp_s, qp_r in zip(srail, rrail):
            # Both ends of a pair ride the same NIC port and are RTS.
            assert qp_s.port == port
            assert qp_r.port == port
            assert qp_s.state is QPState.RTS
            assert qp_r.dest_qp_num == qp_s.qp_num
    # Creation order matches the historical loop — pair by pair, port
    # by port — so each side's QP numbers strictly increase.
    for rails in (send_rails, recv_rails):
        nums = [qp.qp_num for rail in rails for qp in rail]
        assert nums == sorted(nums)
