"""Regression tests: the wait_until/kick race and the idle fallback.

A kick that lands between a waiter's predicate check and its park must
not be lost: before the edge-triggered latch, the waiter would sleep
the whole idle fallback (100 us) past work that was already
done — the race these tests pin down.
"""

from repro.engine import ProgressEngine
from repro.engine.progress import IDLE_FALLBACK
from repro.units import ns, us


def test_kick_landing_as_the_waiter_parks_is_not_lost(env):
    """Kick and predicate flip at the exact step the waiter re-checks.

    Event ordering at t=50ns is: waiter resumes from its poll-miss
    charge, finds the predicate still false and the latch clear, and
    parks; only then does the kicker run, flip the flag, and kick.  A
    level-style wakeup would miss it and sleep the full 100 us
    fallback; the latch must wake the waiter immediately.
    """
    engine = ProgressEngine(env, t_poll_miss=ns(50))
    flag = [False]

    def waiter(env):
        yield from engine.wait_until(lambda: flag[0])
        return env.now

    def kicker(env):
        yield env.timeout(ns(50))
        flag[0] = True
        engine.kick()

    p = env.process(waiter(env))
    env.process(kicker(env))
    env.run()
    assert p.value < us(50)


def test_kick_during_progress_pass_is_not_lost(env):
    """A kick mid-pass (latch set while the waiter is *not* parked)
    must be consumed before parking, not dropped."""
    engine = ProgressEngine(env, t_poll_miss=ns(50))
    flag = [False]

    def waiter(env):
        yield from engine.wait_until(lambda: flag[0])
        return env.now

    def kicker(env):
        yield env.timeout(ns(25))  # inside the waiter's poll-miss charge
        flag[0] = True
        engine.kick()

    p = env.process(waiter(env))
    env.process(kicker(env))
    env.run()
    assert p.value < us(50)


def test_unkicked_wait_uses_idle_fallback(env):
    """Without a kick, the waiter wakes on the fallback cadence."""
    engine = ProgressEngine(env, t_poll_miss=ns(50))
    flag = [False]

    def waiter(env):
        yield from engine.wait_until(lambda: flag[0])
        return env.now

    def setter(env):
        yield env.timeout(us(1))
        flag[0] = True  # no kick: only the fallback can find this

    p = env.process(waiter(env))
    env.process(setter(env))
    env.run()
    assert IDLE_FALLBACK <= p.value < IDLE_FALLBACK + us(1)


# -- the fallback knob ------------------------------------------------------


