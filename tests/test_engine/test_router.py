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


def test_keyed_dispatch_is_one_shot(env):
    _, router = make_router(env)
    cb = object()
    router.on_success(5, cb)
    router.on_failure(5, "entry")
    assert router.pop_success(5) is cb
    assert router.pop_success(5) is None
    assert router.pop_failure(5) == "entry"
    assert router.pop_failure(5) is None


def test_discard_drops_both_tables(env):
    _, router = make_router(env)
    router.on_success(9, "cb")
    router.on_failure(9, "entry")
    router.discard(9)
    assert router.pop_success(9) is None
    assert router.pop_failure(9) is None


def test_sweep_failures_filters_and_preserves_order(env):
    _, router = make_router(env)
    router.on_success(1, "cb1")
    router.on_failure(1, ("chan-a", "m1"))
    router.on_failure(2, ("chan-b", "m2"))
    router.on_failure(3, ("chan-a", "m3"))
    swept = router.sweep_failures(lambda e: e[0] == "chan-a")
    assert swept == [("chan-a", "m1"), ("chan-a", "m3")]
    # Non-matching entries survive; matching success callbacks go too.
    assert router.pop_failure(2) == ("chan-b", "m2")
    assert router.pop_success(1) is None
