"""Tests for composite events (AllOf / Condition)."""

import pytest

from repro.sim import AllOf, Environment


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (3.0, ["a", "b"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        yield env.all_of([])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_all_of_with_already_fired_events():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1.0, value=1)
        yield env.timeout(5.0)  # t1 long since fired
        t2 = env.timeout(1.0, value=2)
        results = yield env.all_of([t1, t2])
        return (env.now, sorted(results.values()))

    p = env.process(proc(env))
    env.run()
    assert p.value == (6.0, [1, 2])


def test_all_of_failure_propagates():
    env = Environment()
    ev = env.event()

    def firer(env, ev):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("part failed"))

    def waiter(env, ev):
        t = env.timeout(10.0)
        try:
            yield env.all_of([t, ev])
        except RuntimeError as exc:
            return f"caught {exc} at {env.now}"

    env.process(firer(env, ev))
    p = env.process(waiter(env, ev))
    env.run()
    assert p.value == "caught part failed at 1.0"


def test_all_of_processes():
    env = Environment()

    def worker(env, delay):
        yield env.timeout(delay)
        return delay

    def coordinator(env):
        workers = [env.process(worker(env, d)) for d in (0.5, 1.5, 1.0)]
        results = yield env.all_of(workers)
        return (env.now, sorted(results.values()))

    p = env.process(coordinator(env))
    env.run()
    assert p.value == (1.5, [0.5, 1.0, 1.5])


def test_mixed_environment_rejected():
    env1, env2 = Environment(), Environment()
    t1 = env1.timeout(1.0)
    t2 = env2.timeout(1.0)
    with pytest.raises(ValueError):
        AllOf(env1, [t1, t2])
