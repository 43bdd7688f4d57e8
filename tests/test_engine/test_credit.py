"""CreditManager and restock: round credits plus RQ top-up."""

import pytest

from repro.engine import CreditManager, restock
from repro.units import us


class FakeRQ_QP:
    def __init__(self, stocked=0):
        self.rq = [object()] * stocked
        self.posts = 0
        self.posted = []

    def post_recv(self, *chain):
        self.rq.extend(chain)
        self.posts += 1
        self.posted.extend(chain)


# -- restock ----------------------------------------------------------------


def test_restock_tops_up_to_target():
    qp = FakeRQ_QP(stocked=3)
    restock(qp, 8)
    assert len(qp.rq) == 8
    assert len(qp.posted) == 5
    assert qp.posts == 1    # one chain, as ibv_post_recv takes
    # Anonymous entries by default, like the p2p channels post.
    assert all(wr.wr_id == 0 for wr in qp.posted)


def test_restock_never_drains():
    qp = FakeRQ_QP(stocked=10)
    restock(qp, 4)
    assert len(qp.rq) == 10
    assert qp.posted == [] and qp.posts == 0


def test_restock_wr_id_factory():
    qp = FakeRQ_QP()
    ids = iter([11, 12, 13])
    restock(qp, 3, lambda: next(ids))
    assert [wr.wr_id for wr in qp.posted] == [11, 12, 13]


# -- CreditManager ----------------------------------------------------------


def test_credit_arrives_one_flight_later(env):
    mgr = CreditManager(env, flush=lambda: iter(()))
    mgr.grant(1, flight=us(2))
    assert not mgr.ready(1)
    env.run(until=us(1))
    assert mgr.armed_round == 0
    env.run(until=us(3))
    assert mgr.armed_round == 1
    assert mgr.ready(1)
    assert not mgr.ready(2)


def test_credit_never_regresses(env):
    mgr = CreditManager(env, flush=lambda: iter(()))
    mgr.grant(3, flight=us(1))
    mgr.grant(2, flight=us(2))  # an older round's credit lands later
    env.run()
    assert mgr.armed_round == 3


def test_deferred_flushes_on_arrival(env):
    flushed = []

    def flush():
        while mgr.deferred:
            flushed.append((mgr.deferred.pop(0), env.now))
            yield env.timeout(0)

    mgr = CreditManager(env, flush=flush)
    mgr.defer("p0")
    mgr.defer("p1")
    mgr.defer("p2")
    mgr.grant(1, flight=us(5))
    env.run()
    assert [p for p, _ in flushed] == ["p0", "p1", "p2"]
    assert flushed[0][1] == pytest.approx(us(5))
    assert not mgr.deferred


def test_no_flush_without_backlog(env):
    calls = []

    def flush():
        calls.append(True)
        return
        yield

    mgr = CreditManager(env, flush=flush)
    mgr.grant(1, flight=us(1))
    env.run()
    assert calls == []
