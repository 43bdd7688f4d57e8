"""Property-based invariants of the DES kernel."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment


@given(delays=st.lists(st.floats(min_value=0, max_value=100),
                       min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_time_is_monotone(delays):
    """The clock never moves backwards, whatever the schedule."""
    env = Environment()
    observed = []

    def proc(env, delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(delays=st.lists(st.floats(min_value=0, max_value=100),
                       min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_wakeups_match_requested_times(delays):
    env = Environment()
    results = []

    def proc(env, delay):
        yield env.timeout(delay)
        results.append((delay, env.now))

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    for requested, woke in results:
        assert woke == requested


@given(
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_fifo_within_timestamp(n, seed):
    """Same-time events fire in creation order regardless of content."""
    import random

    rng = random.Random(seed)
    env = Environment()
    fired = []
    shared_delay = rng.choice([0.0, 1.0, 2.5])

    def proc(env, tag):
        yield env.timeout(shared_delay)
        fired.append(tag)

    for tag in range(n):
        env.process(proc(env, tag))
    env.run()
    assert fired == list(range(n))


@given(
    chain_length=st.integers(min_value=1, max_value=20),
    step=st.floats(min_value=1e-9, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_process_chains_accumulate_exactly(chain_length, step):
    env = Environment()

    def proc(env):
        for _ in range(chain_length):
            yield env.timeout(step)
        return env.now

    p = env.process(proc(env))
    env.run()
    # Summation in the heap is the same FP accumulation as a plain loop.
    expected = 0.0
    for _ in range(chain_length):
        expected += step
    assert p.value == pytest.approx(expected, rel=1e-12)


@given(
    holds=st.lists(st.floats(min_value=1e-6, max_value=1.0),
                   min_size=2, max_size=15),
)
@settings(max_examples=30, deadline=None)
def test_capacity_one_resource_never_overlaps(holds):
    """Mutual exclusion holds for any pattern of hold times."""
    from repro.sim import Resource
    from repro.sim.core import PARKED

    env = Environment()
    res = Resource(env, capacity=1)
    intervals = []

    def worker(env, res, hold):
        req = res.claim()
        if req.waiter is not None:
            yield PARKED
        start = env.now
        yield env.timeout(hold)
        res.release(req)
        intervals.append((start, env.now))

    for hold in holds:
        env.process(worker(env, res, hold))
    env.run()
    intervals.sort()
    for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
        assert s2 >= e1 - 1e-15


@given(
    values=st.lists(st.integers(min_value=-100, max_value=100),
                    min_size=1, max_size=30),
)
@settings(max_examples=30, deadline=None)
def test_store_is_fifo_for_any_items(values):
    from repro.sim import Store

    env = Environment()
    store = Store(env)
    received = []

    def producer(env, store):
        for v in values:
            yield env.timeout(0.1)
            store.push(v)

    def consumer(env, store):
        for _ in values:
            if store.items:
                item = store.items.pop(0)
            else:
                yield store.get()
                item, store.handed = store.handed, None
            received.append(item)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == values
