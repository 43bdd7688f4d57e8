"""CompletionRouter: canonical polling loop and keyed dispatch."""

import pytest

from repro.engine import CompletionRouter, ProgressEngine
from repro.engine.router import POLL_BATCH
from repro.units import ns

from tests.test_engine.conftest import FakeCQ, FakeHost, FakeWC


def make_router(env):
    engine = ProgressEngine(env, t_poll_miss=ns(50))
    return engine, CompletionRouter(engine, FakeHost())


def test_bind_polls_and_dispatches(env):
    engine, router = make_router(env)
    cq = FakeCQ()
    seen = []
    idles = []

    def on_wc(wc):
        seen.append(wc.wr_id)
        return
        yield

    router.bind(cq, on_wc, on_idle=lambda: idles.append(len(seen)))
    for wr_id in (1, 2, 3):
        cq.push(FakeWC(wr_id))

    def prog(env):
        handled = yield from engine.progress_once()
        return (handled, env.now)

    p = env.process(prog(env))
    env.run()
    handled, now = p.value
    assert handled == 3
    assert seen == [1, 2, 3]
    # t_poll_hit charged once per completion.
    assert now == pytest.approx(3 * FakeHost.t_poll_hit)
    assert router.completions_routed == 3
    # The idle hook runs after every drained pass, including this one.
    assert idles == [3]


def test_cq_push_kicks_engine(env):
    engine, router = make_router(env)
    cq = FakeCQ()
    router.bind(cq, lambda wc: iter(()))
    assert len(cq.on_push) == 1
    cq.push(FakeWC(7))
    # The push must have set the engine's park latch.
    assert engine._notify.pending


def test_batch_larger_than_queue_drains_in_laps(env):
    engine, router = make_router(env)
    cq = FakeCQ()
    seen = []

    def on_wc(wc):
        seen.append(wc.wr_id)
        return
        yield

    router.bind(cq, on_wc)
    for wr_id in range(2 * POLL_BATCH + 1):
        cq.push(FakeWC(wr_id))

    def prog(env):
        return (yield from engine.progress_once())

    p = env.process(prog(env))
    env.run()
    assert p.value == 2 * POLL_BATCH + 1
    assert seen == list(range(2 * POLL_BATCH + 1))


def _p2p_success(proc, wr_id):
    """Route a successful send completion through the rank's p2p hook."""
    from repro.ib.constants import WCOpcode, WCStatus
    from repro.ib.wr import WorkCompletion

    wc = WorkCompletion(wr_id, WCStatus.SUCCESS, WCOpcode.RDMA_WRITE,
                        qp_num=0)
    list(proc._on_p2p_wc(wc))
    return wc


def test_keyed_dispatch_is_one_shot(env):
    from repro.mpi import Cluster

    proc = Cluster(n_nodes=1).add_process()
    fired = []
    proc.router.successes[5] = fired.append
    proc.router.failures[5] = "entry"
    wc = _p2p_success(proc, 5)
    _p2p_success(proc, 5)                 # nothing left to fire
    assert fired == [wc]
    assert not proc.router.successes and not proc.router.failures


def test_discard_drops_both_tables(env):
    from repro.mpi import Cluster

    proc = Cluster(n_nodes=1).add_process()
    proc.router.failures[9] = "entry"     # a message with no on_sent
    _p2p_success(proc, 9)
    assert 9 not in proc.router.failures


def test_sweep_failures_filters_and_preserves_order(env):
    _, router = make_router(env)
    router.successes[1] = "cb1"
    router.failures[1] = ("chan-a", "m1")
    router.failures[2] = ("chan-b", "m2")
    router.failures[3] = ("chan-a", "m3")
    swept = router.sweep_failures(lambda e: e[0] == "chan-a")
    assert swept == [("chan-a", "m1"), ("chan-a", "m3")]
    # Non-matching entries survive; matching success callbacks go too.
    assert router.failures == {2: ("chan-b", "m2")}
    assert not router.successes
