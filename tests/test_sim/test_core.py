"""Tests for the DES kernel: Environment, Event, Timeout."""

import pytest

from repro.errors import SimTimeError, SimulationError
from repro.sim import Environment


def test_initial_time_is_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_can_be_set():
    env = Environment(initial_time=42.0)
    assert env.now == 42.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(1.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 1.5
    assert env.now == 1.5


def test_timeout_zero_is_allowed():
    env = Environment()

    def proc(env):
        yield env.timeout(0.0)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimTimeError):
        env.timeout(-1.0)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        got = yield env.timeout(1.0, value="payload")
        return got

    p = env.process(proc(env))
    env.run()
    assert p.value == "payload"


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 3.0, 6.0]


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env, ev):
        value = yield ev
        got.append(value)

    def firer(env, ev):
        yield env.timeout(5.0)
        ev.succeed("done")

    env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert got == ["done"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env, ev):
        yield env.timeout(1.0)
        ev.fail(ValueError("boom"))

    env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert caught == ["boom"]


def test_unhandled_event_failure_aborts_run():
    env = Environment()
    ev = env.event()

    def firer(env, ev):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("nobody caught me"))

    env.process(firer(env, ev))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_defused_failure_does_not_abort():
    env = Environment()
    ev = env.event()

    def firer(env, ev):
        yield env.timeout(1.0)
        ev.fail(RuntimeError("defused"))
        ev.defuse()

    env.process(firer(env, ev))
    env.run()
    assert env.now == 1.0


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(ValueError())


def test_event_value_before_trigger_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=3.5)
    assert env.now == 3.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimTimeError):
        env.run(until=1.0)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == 2.0


def test_run_until_event_propagates_failure():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise KeyError("inner")

    p = env.process(proc(env))
    with pytest.raises(KeyError):
        env.run(until=p)


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    ev = env.event()

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    with pytest.raises(SimulationError, match="queue drained"):
        env.run(until=ev)


def test_same_time_events_fire_in_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(3.0)
    env.timeout(1.0)
    assert env.peek() == 1.0


def test_peek_empty_queue_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_determinism_same_model_same_trace():
    def build_and_run():
        env = Environment()
        order = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            order.append((tag, env.now))
            yield env.timeout(delay * 2)
            order.append((tag, env.now))

        for tag, delay in enumerate((0.3, 0.1, 0.2, 0.1)):
            env.process(proc(env, tag, delay))
        env.run()
        return order

    assert build_and_run() == build_and_run()
