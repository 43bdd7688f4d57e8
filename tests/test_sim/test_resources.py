"""Tests for Resource / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Resource, Store
from repro.sim.core import PARKED


def _take(store):
    """The consumer protocol: the oldest item, parking on an empty store."""
    if store.items:
        return store.items.pop(0)
    yield store.get()
    item, store.handed = store.handed, None
    return item


def test_resource_capacity_one_serializes():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def worker(env, res, tag, hold):
        req = res.claim()
        if req.waiter is not None:
            yield PARKED
        log.append((tag, "in", env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append((tag, "out", env.now))

    env.process(worker(env, res, "a", 2.0))
    env.process(worker(env, res, "b", 1.0))
    env.run()
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 2.0),
        ("b", "in", 2.0),
        ("b", "out", 3.0),
    ]


def test_resource_capacity_n_allows_parallelism():
    env = Environment()
    res = Resource(env, capacity=3)
    finished = []

    def worker(env, res, tag):
        req = res.claim()
        if req.waiter is not None:
            yield PARKED
        yield env.timeout(1.0)
        res.release(req)
        finished.append((tag, env.now))

    for tag in range(3):
        env.process(worker(env, res, tag))
    env.run()
    assert all(t == 1.0 for _, t in finished)


def test_resource_count_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env, res):
        req = res.claim()
        if req.waiter is not None:
            yield PARKED
        yield env.timeout(10.0)
        res.release(req)

    def checker(env, res):
        yield env.timeout(1.0)
        req = res.claim()  # queues this process
        assert req.waiter is env.active_process
        assert res.count == 1
        assert res.queue_length == 1
        res.release(req)  # cancel while queued
        assert res.queue_length == 0
        yield env.timeout(0)

    env.process(holder(env, res))
    env.process(checker(env, res))
    env.run()


def test_release_unowned_request_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.claim()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


@pytest.mark.parametrize("capacity", [float("nan"), 1.5, True])
def test_capacity_must_be_an_integer(capacity):
    # NaN used to be accepted, and the resource never granted a slot.
    env = Environment()
    with pytest.raises(ValueError, match="capacity"):
        Resource(env, capacity=capacity)


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env, store):
        for i in range(3):
            yield env.timeout(1.0)
            store.push(i)

    def consumer(env, store):
        for _ in range(3):
            item = yield from _take(store)
            got.append((item, env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env, store):
        item = yield from _take(store)
        return (item, env.now)

    def producer(env, store):
        yield env.timeout(4.0)
        store.push("x")

    c = env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert c.value == ("x", 4.0)


def test_store_len():
    env = Environment()
    store = Store(env)
    store.push(1)
    store.push(2)
    assert len(store) == 2


def test_claim_takes_a_free_slot_without_an_event():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.claim()                   # free: granted in place
    assert first.waiter is None and res.count == 1
    log = []

    def second(env):
        req = res.claim()                 # busy: this process queues
        log.append(("queued", req.waiter is env.active_process))
        yield PARKED
        log.append(("granted", env.now, req.waiter, res.count))
        res.release(req)

    proc = env.process(second(env))
    env.run()                             # nothing was scheduled for `first`
    assert env.now == 0.0 and res.queue_length == 1 and proc._target is res
    res.release(first)
    env.run()
    assert log == [("queued", True), ("granted", 0.0, None, 1)]
    assert res.count == 0


def test_claim_outside_a_process_raises_on_a_busy_resource():
    env = Environment()
    res = Resource(env, capacity=1)
    res.claim()
    with pytest.raises(SimulationError, match="none is running"):
        res.claim()
    assert res.queue_length == 0


def test_store_push_and_pop_are_event_free():
    env = Environment()
    store = Store(env)
    store.push("a")
    store.push("b")
    assert store.items.pop(0) == "a" and len(store) == 1
    log = []

    def consumer():
        for _ in range(2):
            yield store.get()
            item, store.handed = store.handed, None
            log.append((item, env.now))

    proc = env.process(consumer())
    env.run()
    # "b" is handed over at once; then the consumer parks as itself on
    # the empty store, with nothing on the calendar.
    assert log == [("b", 0.0)] and proc._target is store
    assert not env._heap and not env._cur_normal and not env._cur_urgent
    store.push("c")                       # wakes the parked consumer
    assert store.handed == "c" and not store.items
    assert list(env._cur_normal) == [proc]
    env.run()
    assert log == [("b", 0.0), ("c", 0.0)] and store.handed is None


def test_store_has_one_consumer_and_close_unparks_it():
    env = Environment()
    store = Store(env)

    def consumer():
        yield store.get()

    first = env.process(consumer())
    env.process(consumer())
    with pytest.raises(SimulationError, match="one consumer"):
        env.run()
    assert store._getter is first
    env.close()
    assert store._getter is None and first._target is None
    with pytest.raises(SimulationError, match="none is running"):
        store.get()
