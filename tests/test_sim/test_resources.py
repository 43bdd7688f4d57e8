"""Tests for Resource / PriorityResource / Store."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, PriorityResource, Resource, Store


def test_resource_capacity_one_serializes():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def worker(env, res, tag, hold):
        req = res.request()
        yield req
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
        req = res.request()
        yield req
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
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    def checker(env, res):
        yield env.timeout(1.0)
        req = res.request()  # queues
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
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_priority_resource_serves_lowest_priority_first():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env, res):
        req = res.request()
        yield req
        yield env.timeout(5.0)
        res.release(req)

    def claimant(env, res, prio, tag, delay):
        yield env.timeout(delay)
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    env.process(holder(env, res))
    env.process(claimant(env, res, 5, "low", 1.0))
    env.process(claimant(env, res, 1, "high", 2.0))
    env.run()
    assert order == ["high", "low"]


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env, store):
        for i in range(3):
            yield env.timeout(1.0)
            yield store.put(i)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            got.append((item, env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer(env, store):
        item = yield store.get()
        return (item, env.now)

    def producer(env, store):
        yield env.timeout(4.0)
        yield store.put("x")

    c = env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert c.value == ("x", 4.0)


def test_bounded_store_put_blocks_when_full():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env, store):
        yield store.put("first")
        log.append(("put-first", env.now))
        yield store.put("second")  # blocks until a get
        log.append(("put-second", env.now))

    def consumer(env, store):
        yield env.timeout(3.0)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert ("put-first", 0.0) in log
    assert ("got", "first", 3.0) in log
    assert ("put-second", 3.0) in log


def test_store_len():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)


def test_claim_takes_a_free_slot_without_an_event():
    env = Environment()
    res = Resource(env, capacity=1)
    first = res.claim()
    assert first.processed and first.callbacks is None and first.value is first
    assert res.count == 1
    second = res.claim()                  # busy: a live event, queued FIFO
    assert not second.triggered and res.queue_length == 1
    env.run()                             # nothing was scheduled for `first`
    assert env.now == 0.0 and not second.triggered
    res.release(first)
    assert second.triggered and res.count == 1
    res.release(second)
    assert res.count == 0


def test_priority_resource_claim_queues_by_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    holder = res.claim()
    low, high = res.claim(priority=5), res.claim(priority=1)
    res.release(holder)
    assert high.triggered and not low.triggered


def test_store_push_and_pop_are_event_free():
    env = Environment()
    store = Store(env)
    store.push("a")
    store.push("b")
    assert store.pop() == "a" and len(store) == 1
    got = store.get()
    waiting = store.get()
    store.push("c")                       # wakes the parked getter (evented)
    assert got.value == "b" and waiting.value == "c"
    assert not waiting.processed
    env.run()
    assert waiting.processed


def test_store_push_on_a_full_store_raises_and_pop_admits_a_putter():
    env = Environment()
    store = Store(env, capacity=1)
    store.push("a")
    with pytest.raises(SimulationError):
        store.push("b")
    with pytest.raises(SimulationError):
        store.hand_off("b")
    parked = store.put("b")
    assert not parked.triggered
    assert store.pop() == "a"
    assert parked.triggered and list(store.items) == ["b"]
