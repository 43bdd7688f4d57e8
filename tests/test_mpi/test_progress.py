"""Tests for the progress engine: lock discipline, pollers, parking."""

import pytest

from repro.engine.progress import ProgressEngine
from repro.sim import Environment
from repro.units import ns


def make_engine(env):
    return ProgressEngine(env, t_poll_miss=ns(50))


def test_empty_progress_charges_poll_miss():
    env = Environment()
    engine = make_engine(env)

    def prog(env):
        handled = yield from engine.progress_once()
        return (handled, env.now)

    p = env.process(prog(env))
    env.run()
    assert p.value == (0, pytest.approx(ns(50)))


def test_pollers_run_and_count():
    env = Environment()
    engine = make_engine(env)
    work = [3]

    def poller():
        n = work[0]
        work[0] = 0
        if n:
            yield env.timeout(ns(100) * n)
        return n

    engine.register(poller)

    def prog(env):
        first = yield from engine.progress_once()
        second = yield from engine.progress_once()
        return (first, second)

    p = env.process(prog(env))
    env.run()
    assert p.value == (3, 0)


def test_try_lock_discipline():
    """A second thread entering progress while one holds the lock must
    return immediately with zero work (the paper's Parrived path)."""
    env = Environment()
    engine = make_engine(env)

    def slow_poller():
        yield env.timeout(1e-6)
        return 1

    engine.register(slow_poller)
    results = []

    def first(env):
        n = yield from engine.progress_once()
        results.append(("first", n, env.now))

    def second(env):
        yield env.timeout(0.1e-6)  # arrive mid-progress
        n = yield from engine.progress_once()
        results.append(("second", n, env.now))

    env.process(first(env))
    env.process(second(env))
    env.run()
    # The loser pays one failed-probe poll, then returns empty-handed.
    assert ("second", 0, pytest.approx(0.1e-6 + ns(50))) in results
    assert results[-1][0] == "first" or results[0][0] == "second"


def test_wait_until_parks_on_kick():
    """wait_until must not burn events while idle; a kick wakes it."""
    env = Environment()
    engine = make_engine(env)
    flag = []

    def waiter(env):
        yield from engine.wait_until(lambda: bool(flag))
        return env.now

    def kicker(env):
        yield env.timeout(5e-6)
        flag.append(True)
        engine.kick()

    p = env.process(waiter(env))
    env.process(kicker(env))
    env.run()
    assert p.value == pytest.approx(5e-6, rel=0.5)


def test_wait_until_immediate_predicate():
    env = Environment()
    engine = make_engine(env)

    def prog(env):
        yield from engine.wait_until(lambda: True)
        return env.now

    p = env.process(prog(env))
    env.run()
    assert p.value == 0.0


def test_wait_until_fallback_timer():
    """Even without a kick, the fallback park interval makes progress."""
    env = Environment()
    engine = make_engine(env)
    deadline = 25e-6

    def prog(env):
        yield from engine.wait_until(lambda: env.now >= deadline)
        return env.now

    p = env.process(prog(env))
    env.run()
    assert deadline <= p.value < deadline + 110e-6


def test_watch_cq_kicks():
    from repro.ib.cq import CompletionQueue
    from repro.ib.wr import WorkCompletion
    from repro.ib.constants import WCOpcode, WCStatus

    env = Environment()
    engine = make_engine(env)
    cq = CompletionQueue(None, 16)
    engine.watch_cq(cq)
    seen = []

    def poller():
        wcs = cq.poll(16)
        if wcs:
            yield env.timeout(ns(10))
            seen.extend(wcs)
        return len(wcs)

    engine.register(poller)

    def pusher(env):
        yield env.timeout(3e-6)
        cq.push(WorkCompletion(wr_id=1, status=WCStatus.SUCCESS,
                               opcode=WCOpcode.RECV, qp_num=0))

    def waiter(env):
        yield from engine.wait_until(lambda: bool(seen))
        return env.now

    env.process(pusher(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value == pytest.approx(3e-6, rel=0.5)
    assert len(seen) == 1
