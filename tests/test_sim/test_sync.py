"""Tests for SimLock / SimSemaphore / AtomicCounter / SimBarrier / Notify."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    AtomicCounter,
    Environment,
    Notify,
    SimBarrier,
    SimLock,
    SimSemaphore,
)


def test_lock_mutual_exclusion():
    env = Environment()
    lock = SimLock(env)
    inside = []

    def critical(env, lock, tag):
        yield lock.acquire()
        inside.append((tag, "enter", env.now))
        yield env.timeout(1.0)
        inside.append((tag, "exit", env.now))
        lock.release()

    env.process(critical(env, lock, "a"))
    env.process(critical(env, lock, "b"))
    env.run()
    # b cannot enter until a exits
    assert inside == [
        ("a", "enter", 0.0),
        ("a", "exit", 1.0),
        ("b", "enter", 1.0),
        ("b", "exit", 2.0),
    ]


def test_try_acquire_nonblocking():
    env = Environment()
    lock = SimLock(env)
    results = []

    def holder(env, lock):
        yield lock.acquire()
        yield env.timeout(5.0)
        lock.release()

    def prober(env, lock):
        yield env.timeout(1.0)
        results.append(lock.try_acquire())  # held -> False
        yield env.timeout(10.0)
        results.append(lock.try_acquire())  # free -> True
        lock.release()

    env.process(holder(env, lock))
    env.process(prober(env, lock))
    env.run()
    assert results == [False, True]


def test_release_unlocked_raises():
    env = Environment()
    lock = SimLock(env)
    with pytest.raises(SimulationError):
        lock.release()


def test_lock_contention_counted():
    env = Environment()
    lock = SimLock(env)

    def worker(env, lock):
        yield lock.acquire()
        yield env.timeout(1.0)
        lock.release()

    for _ in range(4):
        env.process(worker(env, lock))
    env.run()
    assert lock.contended_count == 3


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_contended_count_is_one_per_contended_acquisition(n):
    """N simultaneous acquirers of a free lock: the first takes it in
    place, the other N - 1 queue — each counted once, when it queues,
    and not again when the lock is handed to it."""
    env = Environment()
    lock = SimLock(env)
    order = []

    def worker(env, tag):
        yield from lock.hold()
        order.append((tag, env.now))
        yield env.timeout(1.0)
        lock.release()

    for tag in range(n):
        env.process(worker(env, tag))
    env.run()
    assert lock.contended_count == n - 1
    assert order == [(tag, float(tag)) for tag in range(n)]  # FIFO hand-off
    assert not lock.locked


def test_hold_and_acquire_waiters_share_one_fifo():
    env = Environment()
    lock = SimLock(env)
    order = []

    def evented(env, tag):
        yield lock.acquire()
        order.append(tag)
        yield env.timeout(1.0)
        lock.release()

    def inplace(env, tag):
        yield from lock.hold()
        order.append(tag)
        yield env.timeout(1.0)
        lock.release()

    for tag, body in enumerate([evented, inplace, evented, inplace]):
        env.process(body(env, tag))
    env.run()
    assert order == [0, 1, 2, 3]
    assert lock.contended_count == 3


def test_semaphore_counts():
    env = Environment()
    sem = SimSemaphore(env, value=2)
    entered = []

    def worker(env, sem, tag):
        yield sem.acquire()
        entered.append((tag, env.now))
        yield env.timeout(1.0)
        sem.release()

    for tag in range(4):
        env.process(worker(env, sem, tag))
    env.run()
    times = [t for _, t in entered]
    assert times == [0.0, 0.0, 1.0, 1.0]


def test_semaphore_negative_value_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        SimSemaphore(env, value=-1)


def test_atomic_counter_serializes_with_cost():
    env = Environment()
    counter = AtomicCounter(env, access_cost=0.5)
    seen = []

    def incrementer(env, counter):
        value = yield from counter.add_and_fetch(1)
        seen.append((value, env.now))

    for _ in range(4):
        env.process(incrementer(env, counter))
    env.run()
    assert [v for v, _ in seen] == [1, 2, 3, 4]
    # each access holds the lock for 0.5: completion times stagger
    assert [t for _, t in seen] == [0.5, 1.0, 1.5, 2.0]
    assert counter.value == 4
    assert counter.access_count == 4


def test_atomic_counter_zero_cost():
    env = Environment()
    counter = AtomicCounter(env)

    def incrementer(env, counter):
        yield from counter.add_and_fetch(10)

    for _ in range(3):
        env.process(incrementer(env, counter))
    env.run()
    assert counter.value == 30
    assert env.now == 0.0


def test_atomic_counter_fetch():
    env = Environment()
    counter = AtomicCounter(env, initial=7, access_cost=0.1)

    def reader(env, counter):
        value = yield from counter.fetch()
        return value

    p = env.process(reader(env, counter))
    env.run()
    assert p.value == 7


def test_atomic_counter_negative_cost_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        AtomicCounter(env, access_cost=-1.0)


def test_barrier_releases_all_at_once():
    env = Environment()
    barrier = SimBarrier(env, parties=3)
    released = []

    def worker(env, barrier, tag, delay):
        yield env.timeout(delay)
        yield barrier.wait()
        released.append((tag, env.now))

    env.process(worker(env, barrier, "a", 1.0))
    env.process(worker(env, barrier, "b", 2.0))
    env.process(worker(env, barrier, "c", 5.0))
    env.run()
    assert all(t == 5.0 for _, t in released)


def test_barrier_is_reusable():
    env = Environment()
    barrier = SimBarrier(env, parties=2)
    rounds = []

    def worker(env, barrier, tag):
        for r in range(3):
            yield env.timeout(1.0)
            yield barrier.wait()
            rounds.append((tag, r, env.now))

    env.process(worker(env, barrier, "x"))
    env.process(worker(env, barrier, "y"))
    env.run()
    assert len(rounds) == 6
    assert {t for _, r, t in rounds if r == 2} == {3.0}


def test_barrier_parties_validation():
    env = Environment()
    with pytest.raises(ValueError):
        SimBarrier(env, parties=0)


# -- Notify: the progress engine's park/kick latch -------------------------


def test_notify_set_wakes_every_parked_waiter_once():
    env = Environment()
    notify = Notify(env)
    woken = []

    def waiter(env, tag):
        yield notify.wait(1.0)
        woken.append((tag, env.now))

    def kicker(env):
        yield env.timeout(0.25)
        notify.set()
        notify.set()  # coalesces: still one wakeup, one count

    for tag in range(3):
        env.process(waiter(env, tag))
    env.process(kicker(env))
    env.run()
    assert woken == [(0, 0.25), (1, 0.25), (2, 0.25)]
    assert notify.set_count == 1 and notify.pending
    notify.consume()
    assert not notify.pending


def test_notify_wait_after_unconsumed_set_fires_immediately():
    env = Environment()
    notify = Notify(env)
    notify.set()
    seen = []

    def waiter(env):
        yield notify.wait(5.0)
        seen.append(env.now)

    env.process(waiter(env))
    env.run(until=1.0)
    assert seen == [0.0]


def test_notify_drops_a_park_when_its_fallback_expires():
    """A rank idling through a long compute phase parks and times out
    over and over.  Each expired park must leave the latch: at most the
    live one stays parked, and the eventual set wakes exactly it."""
    env = Environment()
    notify = Notify(env)
    wakeups = []

    def idler(env):
        for _ in range(1000):
            yield notify.wait(1e-4)
            wakeups.append(env.now)
            assert len(notify._parked) == 0
        yield notify.wait(1.0)      # the live waiter
        wakeups.append(env.now)

    def kicker(env):
        yield env.timeout(0.5)
        assert len(notify._parked) == 1
        notify.set()
        assert len(notify._parked) == 0

    env.process(idler(env))
    env.process(kicker(env))
    env.run()
    assert len(wakeups) == 1001
    assert wakeups[999] == pytest.approx(0.1)
    assert wakeups[1000] == 0.5      # woken by the set, not its fallback
    assert notify.set_count == 1
