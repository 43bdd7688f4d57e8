"""Tests for Process: lifecycle, interruption, composition."""

import pytest

from repro.errors import Interrupt, ProcessError
from repro.sim import Environment


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.value == 99


def test_process_is_alive_until_done():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)

    p = env.process(proc(env))
    assert p.is_alive
    env.run(until=1.0)
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_waiting_on_another_process():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return result

    p = env.process(parent(env))
    env.run()
    assert p.value == "child-result"


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return "early"

    def parent(env, c):
        yield env.timeout(5.0)
        result = yield c  # already finished
        return (result, env.now)

    c = env.process(child(env))
    p = env.process(parent(env, c))
    env.run()
    assert p.value == ("early", 5.0)


def test_process_exception_propagates_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child failed")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught: {exc}"

    p = env.process(parent(env))
    env.run()
    assert p.value == "caught: child failed"


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
            log.append("overslept")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 2.0, "wake up")]


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        return env.now

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == 3.0


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    def late(env, target):
        yield env.timeout(5.0)
        with pytest.raises(ProcessError):
            target.interrupt()

    target = env.process(quick(env))
    env.process(late(env, target))
    env.run()


def test_self_interrupt_raises():
    env = Environment()

    def proc(env):
        yield env.timeout(0.0)
        with pytest.raises(ProcessError):
            handle.interrupt()

    handle = env.process(proc(env))
    env.run()


def test_stale_timeout_does_not_double_resume():
    """After an interrupt, the original timeout firing must be ignored."""
    env = Environment()
    wakeups = []

    def sleeper(env):
        try:
            yield env.timeout(10.0)
            wakeups.append("timeout")
        except Interrupt:
            wakeups.append("interrupt")
        yield env.timeout(20.0)  # outlives the stale timeout at t=10
        wakeups.append("second")

    def interrupter(env, victim):
        yield env.timeout(1.0)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert wakeups == ["interrupt", "second"]
    assert env.now == 21.0


def test_stale_bare_sleep_does_not_cut_the_next_sleep_short():
    """A process re-arms one wake object for all its bare-number sleeps;
    an interrupted sleep's timer is still queued, so that wake must be
    retired or it would end the *next* sleep at t=10."""
    env = Environment()
    wakeups = []

    def sleeper(env):
        try:
            yield 10.0
            wakeups.append(("timeout", env.now))
        except Interrupt:
            wakeups.append(("interrupt", env.now))
        yield 20.0  # outlives the stale timer at t=10
        wakeups.append(("second", env.now))
        yield 5.0
        wakeups.append(("third", env.now))

    def interrupter(env, victim):
        yield 1.0
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert wakeups == [("interrupt", 1.0), ("second", 21.0), ("third", 26.0)]


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield "not an event"

    p = env.process(bad(env))
    with pytest.raises(ProcessError):
        env.run()
    assert p.triggered and not p.ok


def test_yielding_bare_number_sleeps():
    # The kernel sleep protocol: a bare non-negative number is exactly
    # ``yield env.timeout(n)`` without the Timeout allocation.
    env = Environment()
    ticks = []

    def sleeper(env):
        yield 1.5
        ticks.append(env.now)
        yield 0.0          # zero delay: resumes in the same timestep
        ticks.append(env.now)
        yield 2            # ints sleep too
        ticks.append(env.now)

    env.process(sleeper(env))
    env.run()
    assert ticks == [1.5, 1.5, 3.5]
    assert env.now == 3.5


def test_yielding_negative_number_raises():
    from repro.errors import SimTimeError

    env = Environment()

    def bad(env):
        yield -0.5

    env.process(bad(env))
    with pytest.raises(SimTimeError):
        env.run()


def test_number_sleep_orders_like_timeout():
    # A float sleep and an equal env.timeout() sleep scheduled from two
    # processes interleave in spawn (seq) order, same as two timeouts.
    env = Environment()
    order = []

    def via_float(env):
        yield 1.0
        order.append("float")

    def via_timeout(env):
        yield env.timeout(1.0)
        order.append("timeout")

    env.process(via_float(env))
    env.process(via_timeout(env))
    env.run()
    assert order == ["float", "timeout"]


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(ProcessError):
        env.process(lambda: None)


def test_process_named_after_generator():
    env = Environment()

    def my_worker(env):
        yield env.timeout(0)

    p = env.process(my_worker(env))
    assert p.name == "my_worker"
    env.run()


def test_many_processes_complete():
    env = Environment()
    done = []

    def worker(env, i):
        yield env.timeout(i * 0.1)
        done.append(i)

    for i in range(100):
        env.process(worker(env, i))
    env.run()
    assert done == list(range(100))
