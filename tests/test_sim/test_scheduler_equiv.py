"""Order-equivalence of the bucketed calendar scheduler.

The kernel contract is that events dispatch in exact
``(time, priority, seq)`` order — what a single reference heap of those
tuples would produce, given the same stream of schedule operations.
The bucketed scheduler in :mod:`repro.sim.core` splits that heap into
current-time deques, a rare-priority overflow heap, and a future-time
heap, so these tests replay randomized workloads (including
same-timestamp floods and callback-scheduled urgents) against an
actual ``heapq`` and assert the dispatch sequences match operation for
operation.
"""

from __future__ import annotations

import heapq
import itertools
import random

import numpy as np
import pytest

from repro.runtime import ComputePhase, NoNoise, WorkerTeam
from repro.sim.core import Environment, Event, PRIORITY_NORMAL, PRIORITY_URGENT
from repro.sim.resources import Resource, Store
from repro.sim.sync import SimLock

_counter = itertools.count()


def _observed_event(env, ops, priority, delay):
    """Schedule a bare succeeded event, logging schedule + dispatch ops.

    The reference sequence number is the global scheduling order — the
    seq a single ``(time, priority, seq)`` heap would have assigned.
    (The bucketed scheduler itself skips seq assignment for
    current-time events, so the test keeps its own counter.)
    """
    event = Event(env)
    event._ok = True
    event._value = None
    key = (env._now + delay, priority, next(_counter))
    ops.append(("sched", key))
    event.callbacks.append(lambda _e: ops.append(("disp", key)))
    env._schedule(event, priority, delay)
    return event


def _assert_matches_reference_heap(ops):
    """Replay the op stream: every dispatch must pop the reference heap.

    Events scheduled inside a dispatch's callbacks appear in ``ops``
    before the next dispatch, exactly as a heapq-driven kernel would
    see them — so this is a bit-exact order check, valid for dynamic
    workloads.
    """
    pending: list = []
    dispatched = 0
    for kind, key in ops:
        if kind == "sched":
            heapq.heappush(pending, key)
        else:
            expected = heapq.heappop(pending)
            assert key == expected, (
                f"dispatch #{dispatched}: got {key}, the reference heap "
                f"says {expected}"
            )
            dispatched += 1
    assert not pending, f"{len(pending)} scheduled events never dispatched"
    return dispatched


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_randomized_workload_matches_reference(seed):
    rng = random.Random(seed)
    env = Environment()
    ops: list = []
    # Quantized delays force heavy timestamp collisions: the floods the
    # current-time deques and the same-time heap staging must keep in
    # seq order.
    delays = [0.0, 0.0, 0.0, 1.0, 1.0, 2.5, 2.5, 7.25]
    priorities = [PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_NORMAL,
                  PRIORITY_NORMAL, 2, 3]

    spawn_budget = [300]

    def maybe_spawn(_event):
        # Dynamic scheduling from inside a dispatch: children land in
        # the *current* timestep (delay 0) or the future, both legal.
        if spawn_budget[0] <= 0:
            return
        for _ in range(rng.randrange(3)):
            spawn_budget[0] -= 1
            child = _observed_event(env, ops, rng.choice(priorities),
                                    rng.choice(delays))
            child.callbacks.append(maybe_spawn)

    for _ in range(200):
        event = _observed_event(env, ops, rng.choice(priorities),
                                rng.choice(delays))
        event.callbacks.append(maybe_spawn)

    env.run()
    assert _assert_matches_reference_heap(ops) >= 200


def test_same_timestamp_flood_matches_reference():
    """A static flood: 1000 events over 3 timestamps, 4 priorities."""
    rng = random.Random(99)
    env = Environment()
    ops: list = []
    for _ in range(1000):
        priority = rng.choice([0, 1, 1, 1, 2, 3])
        delay = rng.choice([0.0, 0.0, 1e-6, 1e-6, 5e-6])
        _observed_event(env, ops, priority, delay)
    env.run()
    assert _assert_matches_reference_heap(ops) == 1000


def test_urgent_preempts_pending_normals_in_same_timestep():
    """An urgent scheduled *during* a timestep runs before queued
    normals of that timestep, despite its later seq."""
    env = Environment()
    order = []

    first = Event(env)
    first._ok = True
    second = Event(env)
    second._ok = True

    def first_cb(_event):
        order.append("first")
        urgent = Event(env)
        urgent._ok = True
        urgent.callbacks.append(lambda _e: order.append("urgent"))
        env._schedule(urgent, PRIORITY_URGENT)

    first.callbacks.append(first_cb)
    second.callbacks.append(lambda _e: order.append("second"))
    env._schedule(first, PRIORITY_NORMAL)
    env._schedule(second, PRIORITY_NORMAL)
    env.run()
    assert order == ["first", "urgent", "second"]


def test_process_sleep_workload_matches_reference():
    """Generator processes mixing timeouts, float sleeps, and zero
    delays still dispatch their wakeups in reference order."""
    rng = random.Random(3)
    env = Environment()
    ticks = []

    def worker(wid, rng_local):
        for _ in range(20):
            style = rng_local.randrange(3)
            delay = rng_local.choice([0.0, 1e-6, 3e-6, 1e-3])
            if style == 0:
                yield env.timeout(delay)
            else:
                yield delay
            ticks.append((env.now, wid))

    for wid in range(16):
        env.process(worker(wid, random.Random(rng.randrange(1 << 30))))
    env.run()
    assert len(ticks) == 16 * 20
    # Virtual time is monotone over the dispatch sequence.
    times = [t for t, _ in ticks]
    assert times == sorted(times)


# -- event-free primitives against the evented ones they replace -----------
#
# The per-message event budget (docs/PERF.md) removed kernel dispatches
# that carried no virtual-time information.  Each case below drives one
# small randomized workload twice — through the old evented primitive and
# through its event-free replacement — and compares resume traces:
# ``(process, env.now)`` at every point a process gets past the primitive.
#
# * Removing an event nobody observes cannot reorder anything, so those
#   cases compare the *global* trace, dispatch order included.
# * A primitive that lets a process carry on in place (instead of being
#   resumed by a zero-delay event later in the same timestamp) keeps
#   every process's own ``env.now`` sequence and the order in which the
#   shared object was granted, which is what those cases compare; the
#   interleaving of *different* processes inside one timestamp is the one
#   thing it is allowed to move.

#: Quantized so that wakeups collide on a timestamp all the time.
_THINK = [0.0, 0.0, 1e-6, 1e-6, 2e-6, 5e-6]
_HOLD = [1e-6, 1e-6, 2e-6, 3e-6]


def _per_process(trace):
    out: dict = {}
    for name, now in trace:
        out.setdefault(name, []).append(now)
    return out


def _contenders(seed, make, n_procs=8, n_rounds=12):
    """N processes think, take the shared object, hold it, release it.

    ``make(env)`` builds the shared object and returns it with its
    ``acquire()`` process body (returning a token) and ``release(token)``.
    """
    env = Environment()
    shared, acquire, release = make(env)
    trace: list = []
    master = random.Random(seed)

    def worker(name, rng):
        for _ in range(n_rounds):
            yield rng.choice(_THINK)
            token = yield from acquire()
            trace.append((name, env.now))
            yield rng.choice(_HOLD)
            release(token)

    for name in range(n_procs):
        env.process(worker(name, random.Random(master.randrange(1 << 30))))
    env.run()
    assert len(trace) == n_procs * n_rounds
    return trace, env.now, shared


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_lock_hold_matches_evented_acquire(seed):
    def make(inplace):
        def build(env):
            lock = SimLock(env)

            def acquire():
                if inplace:
                    yield from lock.hold()
                else:
                    yield lock.acquire()

            return lock, acquire, lambda _token: lock.release()
        return build

    old_trace, old_end, old_lock = _contenders(seed, make(inplace=False))
    new_trace, new_end, new_lock = _contenders(seed, make(inplace=True))
    # One lock: the grant order is the whole story, so the global trace
    # (who held it, in what order, at what time) matches.
    assert new_trace == old_trace
    assert new_end == old_end
    assert new_lock.contended_count == old_lock.contended_count > 0


@pytest.mark.parametrize("capacity", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_resource_claim_matches_evented_request(seed, capacity):
    def make(inplace):
        def build(env):
            res = Resource(env, capacity=capacity)

            def acquire():
                if inplace:
                    req = res.claim()
                    if req.callbacks is not None:
                        yield req
                else:
                    req = res.request()
                    yield req
                assert req in res._users and req.processed
                return req

            return res, acquire, res.release
        return build

    old_trace, old_end, old_res = _contenders(seed, make(inplace=False))
    new_trace, new_end, new_res = _contenders(seed, make(inplace=True))
    assert new_res.count == old_res.count == 0
    assert _per_process(new_trace) == _per_process(old_trace)
    if capacity == 1:
        # One slot: as for the lock.  (With several, two slots granted
        # in one timestamp log in the order their holders carried on —
        # the interleaving that is allowed to move.)
        assert new_trace == old_trace
    assert new_end == old_end


def test_yielding_an_in_place_grant_is_still_legal():
    env = Environment()
    res = Resource(env, capacity=1)
    seen = []

    def worker(env):
        req = res.claim()
        assert req.callbacks is None
        got = yield req                      # already processed: resumes at once
        seen.append((got is req, env.now))
        res.release(req)

    env.process(worker(env))
    env.run()
    assert seen == [(True, 0.0)]


def _pipeline(seed, produce, consume, n_items=60):
    """Two producers feed one consumer through a Store (the NIC's
    post -> fetch -> transmit shape): the consumer logs every item."""
    env = Environment()
    store = Store(env)
    trace: list = []
    master = random.Random(seed)

    def producer(name, rng):
        for i in range(n_items):
            yield rng.choice(_THINK)
            yield from produce(store, (name, i))
            trace.append((name, env.now))

    def consumer():
        for _ in range(2 * n_items):
            item = yield from consume(store)
            trace.append(("consumer", env.now, item))
            yield _THINK[item[1] % len(_THINK)]

    for name in ("p0", "p1"):
        env.process(producer(name, random.Random(master.randrange(1 << 30))))
    env.process(consumer())
    env.run()
    return trace, env.now


def _evented_get(store):
    return (yield store.get())


def _inplace_get(store):
    return store.pop() if store.items else (yield store.get())


def _yielded_put(store, item):
    yield store.put(item)


def _unyielded_put(store, item):
    store.put(item)
    return
    yield  # pragma: no cover - generator protocol


def _push(store, item):
    store.push(item)
    return
    yield  # pragma: no cover - generator protocol


def _hand_off(store, item):
    store.hand_off(item)
    return
    yield  # pragma: no cover - generator protocol


def _consumed(trace):
    return [r for r in trace if r[0] == "consumer"]


def _produced(trace):
    return _per_process(r for r in trace if r[0] != "consumer")


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_push_matches_an_unyielded_put_exactly(seed):
    # The put event had no callbacks: dropping it reorders nothing, so
    # the whole trace matches, interleaving included.
    assert (_pipeline(seed, _push, _evented_get)
            == _pipeline(seed, _unyielded_put, _evented_get))


@pytest.mark.parametrize("produce", [_push, _hand_off],
                         ids=["push", "hand_off"])
@pytest.mark.parametrize("consume", [_evented_get, _inplace_get],
                         ids=["get", "pop-or-get"])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_event_free_store_paths_match_yielded_put_and_get(seed, produce,
                                                          consume):
    old_trace, old_end = _pipeline(seed, _yielded_put, _evented_get)
    new_trace, new_end = _pipeline(seed, produce, consume)
    # Same items to the consumer, in the same order, at the same times;
    # every producer gets past its deposit at the same times.
    assert _consumed(new_trace) == _consumed(old_trace)
    assert _produced(new_trace) == _produced(old_trace)
    assert new_end == old_end


def test_hand_off_runs_the_parked_consumer_inside_the_call():
    env = Environment()
    store = Store(env)
    log = []

    def consumer():
        while True:
            item = yield store.get()
            log.append(("got", item, env.active_process.name))

    def producer():
        yield 1e-6
        me = env.active_process
        store.hand_off("a")
        log.append(("handed", env.active_process is me))
        store.push("b")
        log.append(("pushed", None))

    env.process(consumer())
    env.process(producer())
    env.run()
    assert log == [("got", "a", "consumer"), ("handed", True),
                   ("pushed", None), ("got", "b", "consumer")]


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_unobserved_process_completion_matches_the_dispatched_one(seed):
    """A process nobody waits on finishes in place.  Giving every process
    a no-op observer brings the completion event back: same global trace."""
    def run(observed):
        env = Environment()
        trace: list = []
        master = random.Random(seed)

        def child(name, rng):
            for _ in range(rng.randrange(1, 4)):
                yield rng.choice(_THINK)
                trace.append((name, env.now))
            return name

        def parent(name, rng):
            late = None
            for i in range(6):
                yield rng.choice(_THINK)
                proc = env.process(child((name, i), random.Random(
                    rng.randrange(1 << 30))))
                if observed:
                    proc.callbacks.append(lambda _event: None)
                if i == 2:
                    late = proc
                trace.append((name, env.now))
            # Joining a child that finished unobserved long ago still works.
            yield 1e-3
            assert not late.is_alive
            trace.append((name, env.now, (yield late)))

        for name in range(4):
            env.process(parent(name, random.Random(master.randrange(1 << 30))))
        env.run()
        return trace, env.now

    assert run(observed=False) == run(observed=True)


def _all_of_round(team, phase, body):
    """``WorkerTeam.run_round`` as it was: N processes under an AllOf."""
    env = team.env
    delays = phase.noise.delays(team.n_threads, phase.compute, team._round,
                                team.rng)
    team._round += 1

    def worker(tid, extra):
        total = phase.compute + extra
        if total > 0:
            yield total
        result = body(tid)
        if result is not None:
            yield from result
        return env.now

    def joined(env):
        workers = [env.process(worker(tid, float(delays[tid])))
                   for tid in range(team.n_threads)]
        results = yield env.all_of(workers)
        return [results[w] for w in workers]

    return env.process(joined(env))


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_worker_team_countdown_matches_all_of(seed):
    def run(countdown):
        env = Environment()
        trace: list = []
        lock = SimLock(env)
        master = random.Random(seed)
        plans = [[master.choice(_HOLD) for _ in range(master.randrange(3))]
                 for _ in range(12)]
        team = WorkerTeam(env, 12, np.random.Generator(np.random.PCG64(seed)))
        phase = ComputePhase(compute=master.choice([0.0, 1e-6]),
                             noise=NoNoise(), jitter_fraction=0.0)

        def body(tid):
            for hold in plans[tid]:
                yield lock.acquire()
                trace.append((tid, env.now))
                yield hold
                lock.release()

        def bystander():
            for _ in range(40):
                yield master.choice(_THINK)
                trace.append(("bystander", env.now))

        def rank():
            for round_no in range(3):
                if countdown:
                    finish = yield team.run_round(phase, body)
                else:
                    finish = yield _all_of_round(team, phase, body)
                trace.append(("rank", env.now, tuple(finish)))

        env.process(rank())
        env.process(bystander())
        env.run()
        return trace, env.now

    assert run(countdown=True) == run(countdown=False)


def test_worker_team_round_fails_with_the_first_thread_that_raises():
    env = Environment()
    team = WorkerTeam(env, 4, np.random.Generator(np.random.PCG64(0)))
    phase = ComputePhase(compute=0.0, noise=NoNoise(), jitter_fraction=0.0)
    caught = []

    def body(tid):
        yield 1e-6 * (tid + 1)
        if tid == 1:
            raise RuntimeError("thread 1 died")

    def rank():
        try:
            yield team.run_round(phase, body)
        except RuntimeError as exc:
            caught.append((str(exc), env.now))

    env.process(rank())
    env.run()
    assert caught == [("thread 1 died", 2e-6)]
