"""Order-equivalence of the bucketed calendar scheduler.

The kernel contract is that events dispatch in exact
``(time, priority, seq)`` order — what a single reference heap of those
tuples would produce, given the same stream of schedule operations.
The bucketed scheduler in :mod:`repro.sim.core` splits that heap into
current-time deques (urgent and normal) and a future-time heap, so
these tests replay randomized workloads (including
same-timestamp floods and callback-scheduled urgents) against an
actual ``heapq`` and assert the dispatch sequences match operation for
operation.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque

import numpy as np
import pytest

from repro.runtime import ComputePhase, NoNoise, WorkerTeam
from repro.errors import SimulationError
from repro.ib.constants import QPState, WCStatus
from repro.ib.qp import QueuePair
from repro.sim.core import (
    PARKED, Environment, Event, PRIORITY_NORMAL, PRIORITY_URGENT, _Expiry,
    _PENDING)
from repro.sim.process import Process
from repro.sim.resources import Request, Resource, Store
from repro.sim.sync import AtomicCounter, Notify, SimLock, _Park

_counter = itertools.count()


def _schedule(env, event, priority, delay=0.0):
    """Queue a triggered ``event`` the way the kernel's own paths do:
    a current-time event into the batch deques, a future one into the
    ``(time, priority, seq)`` heap."""
    when = env._now + delay
    if when > env._now:
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, (when, priority, seq, event))
    elif priority == PRIORITY_NORMAL:
        env._cur_normal.append(event)
    else:
        env._cur_urgent.append(event)


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
    _schedule(env, event, priority, delay)
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
                  PRIORITY_NORMAL]

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
    """A static flood: 1000 events over 3 timestamps, both priorities."""
    rng = random.Random(99)
    env = Environment()
    ops: list = []
    for _ in range(1000):
        priority = rng.choice([0, 1, 1, 1])
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
    first._value = None
    second = Event(env)
    second._ok = True
    second._value = None

    def first_cb(_event):
        order.append("first")
        urgent = Event(env)
        urgent._ok = True
        urgent._value = None
        urgent.callbacks.append(lambda _e: order.append("urgent"))
        _schedule(env, urgent, PRIORITY_URGENT)

    first.callbacks.append(first_cb)
    second.callbacks.append(lambda _e: order.append("second"))
    _schedule(env, first, PRIORITY_NORMAL)
    _schedule(env, second, PRIORITY_NORMAL)
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
# * A contended lock or resource wakes its queued process directly where
#   the grant event went, so those two cases compare everything, the
#   dispatch log included, against the evented copies patched in by
#   ``_with_grant_events`` (defined with the direct-wake cases below).

#: Quantized so that wakeups collide on a timestamp all the time.
_THINK = [0.0, 0.0, 1e-6, 1e-6, 2e-6, 5e-6]
_HOLD = [1e-6, 1e-6, 2e-6, 3e-6]


def _per_process(trace):
    out: dict = {}
    for name, now in trace:
        out.setdefault(name, []).append(now)
    return out


def _contenders(seed, make, n_procs=8, n_rounds=12, log=False):
    """N processes think, take the shared object, hold it, release it.

    ``make(env)`` builds the shared object and returns it with its
    ``acquire()`` process body (returning a token) and ``release(token)``.
    With ``log``, also returns the run's :class:`_ResumeLog` entries.
    """
    env = Environment()
    if log:
        env._profile = _ResumeLog()
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
    if log:
        return (trace, env.now, shared), env._profile.log
    return trace, env.now, shared


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_lock_hold_matches_evented_acquire(seed):
    """A contended ``hold`` wakes the queued process itself; today's
    evented copy succeeds a grant event.  Same dispatches, same trace."""
    def build(env):
        lock = SimLock(env)

        def acquire():
            yield from lock.hold()

        return lock, acquire, lambda _token: lock.release()

    (old_trace, old_end, old_lock), old_log = _with_grant_events(
        lambda: _contenders(seed, build, log=True))
    (new_trace, new_end, new_lock), new_log = _contenders(seed, build,
                                                          log=True)
    # One lock: the grant order is the whole story, so the global trace
    # (who held it, in what order, at what time) matches.
    assert new_trace == old_trace
    assert new_log == old_log
    assert new_end == old_end
    assert new_lock.contended_count == old_lock.contended_count > 0


@pytest.mark.parametrize("capacity", [1, 3])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_resource_claim_matches_evented_request(seed, capacity):
    def build(env):
        res = Resource(env, capacity=capacity)

        def acquire():
            req = res.claim()
            if req.waiter is not None:
                yield PARKED
            assert req in res._users and req.waiter is None
            return req

        return res, acquire, res.release

    (old_trace, old_end, old_res), old_log = _with_grant_events(
        lambda: _contenders(seed, build, log=True))
    (new_trace, new_end, new_res), new_log = _contenders(seed, build,
                                                         log=True)
    assert new_res.count == old_res.count == 0
    assert _per_process(new_trace) == _per_process(old_trace)
    assert new_trace == old_trace
    assert new_log == old_log
    assert new_end == old_end


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


def _get(store):
    yield store.get()
    item, store.handed = store.handed, None
    return item


def _pop_or_get(store):
    if store.items:
        return store.items.pop(0)
    return (yield from _get(store))


def _yielded_put(store, item):
    # The evented deposit: the item is stored (or handed to the oldest
    # getter) and a put event fires at once.
    store.push(item)
    yield store.env.event().succeed(None)


def _unyielded_put(store, item):
    store.push(item)
    store.env.event().succeed(None)
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
    assert (_pipeline(seed, _push, _get)
            == _pipeline(seed, _unyielded_put, _get))


@pytest.mark.parametrize("produce", [_push, _hand_off],
                         ids=["push", "hand_off"])
@pytest.mark.parametrize("consume", [_get, _pop_or_get],
                         ids=["get", "pop-or-get"])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_event_free_store_paths_match_yielded_put_and_get(seed, produce,
                                                          consume):
    old_trace, old_end = _with_grant_events(
        lambda: _pipeline(seed, _yielded_put, _get))
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
            item = yield from _get(store)
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
            assert late.triggered
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
        generator = np.random.Generator(np.random.PCG64(seed))
        team = WorkerTeam(env, 12, lambda: generator)
        phase = ComputePhase(compute=master.choice([0.0, 1e-6]),
                             noise=NoNoise(), jitter_fraction=0.0)

        def body(tid):
            for hold in plans[tid]:
                yield from lock.hold()
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
    generator = np.random.Generator(np.random.PCG64(0))
    team = WorkerTeam(env, 4, lambda: generator)
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


# -- entries dispatched as themselves --------------------------------------
#
# A sleeping process, a lane deadline and a NIC timer are calendar entries
# with no callback list.  The first check replays sleeps against the
# reference heap op for op, as above.  The rest run each workload twice:
# on the real calendar and on :class:`_ReferenceEnvironment`, where every
# entry — batch appends, heap pushes and lane deadlines alike — goes into
# one ``(time, priority, seq)`` heap, and compare the dispatch logs.


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_bare_number_sleeps_match_reference(seed):
    rng = random.Random(seed)
    env = Environment()
    ops: list = []

    def sleeper(rng_local):
        for _ in range(15):
            delay = rng_local.choice([0.0, 0.0, 0.25, 0.5, 0.5, 1.0])
            if rng_local.random() < 0.3:
                # A flood of plain events shares the sleeps' timestamps.
                _observed_event(env, ops, rng_local.choice([0, 1]),
                                rng_local.choice([0.0, 0.25, 0.5]))
            key = (env._now + delay, PRIORITY_NORMAL, next(_counter))
            ops.append(("sched", key))
            yield delay
            ops.append(("disp", key))

    for _ in range(12):
        env.process(sleeper(random.Random(rng.randrange(1 << 30))))
    env.run()
    assert _assert_matches_reference_heap(ops) >= 12 * 15


class _ReferenceBatch:
    """A batch deque of the reference kernel: appends go on the heap."""

    def __init__(self, env, priority):
        self.env = env
        self.priority = priority

    def append(self, entry):
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heapq.heappush(env._heap, (env._now, self.priority, seq, entry))

    def __bool__(self):
        return False

    def clear(self):
        pass


class _ReferenceLane:
    def __init__(self, env):
        self.env = env

    def append(self, entry):
        when, seq, event = entry
        heapq.heappush(self.env._heap, (when, PRIORITY_NORMAL, seq,
                                        _Expiry(event)))


class _ReferenceLanes(dict):
    def get(self, delay, default=None):
        return _ReferenceLane(self.env)


class _ReferenceEnvironment(Environment):
    """The calendar as one ``(time, priority, seq)`` heap, nothing else."""

    def __init__(self):
        super().__init__()
        self._cur_urgent = _ReferenceBatch(self, PRIORITY_URGENT)
        self._cur_normal = _ReferenceBatch(self, PRIORITY_NORMAL)
        self._lanes = _ReferenceLanes()
        self._lanes.env = self

    def _drain(self, stop=(), deadline=float("inf")):
        heap = self._heap
        while heap:
            when, _, _, entry = heap[0]
            if when > deadline:
                return
            heapq.heappop(heap)
            self._now = when
            if type(entry) is _Expiry and entry.park._value is not _PENDING:
                continue            # a stale deadline: popped, not dispatched
            if entry._value is _PENDING:
                self._profile.dispatch(when, entry, (entry._resume,))
                if stop:
                    return
                continue
            callbacks, entry.callbacks = entry.callbacks, None
            entry._processed = True
            self._profile.dispatch(when, entry, callbacks)
            if not entry._ok and not entry._defused:
                raise entry._value
            if stop:
                return


def _waiters(event):
    if type(event) is _Park:
        return (event._proc.name,)
    return tuple(getattr(getattr(cb, "__self__", None), "name", "?")
                 for cb in event.callbacks or ())


class _DispatchLog:
    """A ``KernelProfile`` stand-in: logs ``(time, what)`` per dispatch."""

    def __init__(self):
        self.log = []

    def dispatch(self, now, event, callbacks):
        if type(event) is _Expiry:
            if event.park._value is not _PENDING:
                return              # staged, then beaten by a set: a no-op
            what = ("expire", _waiters(event.park))
        elif getattr(callbacks[0], "label", None):
            what = callbacks[0].label      # a reference NIC Timeout stage
        elif isinstance(event, Process) and event._value is _PENDING:
            # A woken process still names the primitive it parked on.
            what = ("wake" if event._target is not None else "sleep",
                    event.name)
        elif type(event).__name__ == "_Delivery":
            what = ("delivery", event.stage, event.qp.qp_num, event.wr.wr_id)
        elif type(event).__name__ == "_RecvCompletion":
            what = ("recv-cqe", event.dest_qp.qp_num, event.wr.wr_id)
        else:
            what = (type(event).__name__, _waiters(event))
        self.log.append((now, what))
        for callback in callbacks:
            callback(event)


def _run(cls, workload, **run):
    """``workload(env)`` on calendar ``cls``: ``(log, env.now)``."""
    env = cls()
    env._profile = _DispatchLog()
    workload(env)
    env.run(**run)
    return env._profile.log, env.now


def _both(workload, **run):
    """The workload on the real and on the reference calendar."""
    return [_run(cls, workload, **run)
            for cls in (Environment, _ReferenceEnvironment)]


def _parking(seed, n_procs=10, n_rounds=14):
    """Processes that park on two latches with several fallbacks (1e-4 s
    and 1.0 s as in test_sync, plus binary fractions that collide with
    the sleeps and each other), sleep, time out and set the latches."""
    def workload(env):
        master = random.Random(seed)
        latches = [Notify(env), Notify(env)]

        def proc(rng):
            for _ in range(n_rounds):
                latch = rng.choice(latches)
                roll = rng.random()
                if roll < 0.45:
                    if latch.pending:
                        latch.consume()
                    yield latch.wait(rng.choice(
                        [1e-4, 1.0, 0.25, 0.25, 0.5, 0.0, None]
                        if roll < 0.4 else [0.25]))
                elif roll < 0.7:
                    yield rng.choice([0.0, 0.25, 0.5, 0.75])
                elif roll < 0.85:
                    yield env.timeout(rng.choice([0.0, 0.25, 0.5]))
                else:
                    latch.set()
                    yield 0.25

        def kicker(rng):
            # Keeps the None-fallback parks from waiting forever, and
            # puts urgent and normal heap entries on the deadlines'
            # timestamps.
            for _ in range(n_procs * n_rounds):
                yield 0.25
                latches[0].set()
                latches[1].set()
                event = Event(env)
                event._ok = True
                event._value = None
                event.callbacks.append(lambda _event: None)
                _schedule(env, event, rng.choice([0, 1]),
                          rng.choice([0.0, 0.25, 0.5]))

        for i in range(n_procs):
            Process(env, proc(random.Random(master.randrange(1 << 30))),
                    name=f"p{i}")
        env.process(kicker(random.Random(master.randrange(1 << 30))))
    return workload


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 99])
def test_lane_deadlines_match_reference(seed):
    (real, real_end), (ref, ref_end) = _both(_parking(seed))
    assert real == ref
    assert real_end == ref_end
    kinds = {what[0] for _, what in real}
    assert {"expire", "sleep", "Timeout", "wake"} <= kinds


def test_trailing_stale_deadlines_leave_the_clock_where_the_reference_does():
    def workload(env):
        notify = Notify(env)

        def waiter():
            yield notify.wait(1.0)      # the set at 0.25 beats 1.0
            yield notify.wait(0.5)      # the set at 0.75 ties 0.75, first

        def setter():
            yield 0.25
            notify.set()
            notify.consume()
            yield 0.5
            notify.set()

        env.process(waiter())
        env.process(setter())

    (real, real_end), (ref, ref_end) = _both(workload)
    assert real == ref
    # The last useful event is at 0.75; the stale 1.0 still moves the clock.
    assert real_end == ref_end == 1.0
    assert not any(what[0] == "expire" for _, what in real)


def test_run_until_leaves_later_deadlines_queued():
    def workload(env):
        notify = Notify(env)

        def waiter():
            yield notify.wait(1.0)
            yield notify.wait(1.0)

        env.process(waiter())

    (real, real_end), (ref, ref_end) = _both(workload, until=1.5)
    assert real == ref and real_end == ref_end == 1.5
    env = Environment()
    workload(env)
    env.run(until=1.5)
    assert env.peek() == 2.0                # the live second park's deadline
    env.run()
    assert env.now == 2.0 and env.peek() == float("inf")


def test_peek_sees_a_lane_head_and_close_drops_the_lane():
    env = Environment()
    notify = Notify(env)
    finished = []

    def waiter():
        try:
            yield notify.wait(0.5)
        finally:
            finished.append(env.now)

    env.process(waiter())
    env.timeout(0.75)
    env.run(until=0.25)
    assert env.peek() == 0.5
    assert "queued=2" in repr(env)
    env.close()
    assert finished == [0.25]
    assert env._lanes == {} and env.peek() == float("inf")


def _nic_traffic(seed):
    """Three two-node fabrics posting signaled and unsignaled RDMA writes
    with immediate and two-sided sends.  Every wire time is a power of
    two, so sums are exact and one fabric's ACK or CQE lands on the very
    timestamp of another's arrival or post: the collisions in which a
    stage's (priority, seq) decides the order."""
    from dataclasses import replace

    from repro.config import NIAGARA
    from repro.ib.constants import Opcode
    from repro.ib.wr import SGE, RecvWR, SendWR
    from tests.test_ib.conftest import Pair

    tick = 2.0 ** -23
    config = replace(
        NIAGARA,
        nic=replace(NIAGARA.nic, line_rate=2.0 ** 30, qp_rate=2.0 ** 30,
                    t_wqe=tick, t_pkt=tick / 8, t_cqe=tick),
        link=replace(NIAGARA.link, latency=8 * tick))

    def workload(env):
        rng = random.Random(seed)
        pairs = [Pair(env, config=config, bufsize=64 * 1024, backed=False)
                 for _ in range(3)]

        def poster(pair, rng_local):
            for i in range(16):
                yield tick * rng_local.choice([0, 1, 2, 8, 16, 24])
                nbytes = rng_local.choice([8, 512, 4096, 40_000])
                opcode = rng_local.choice([Opcode.RDMA_WRITE_WITH_IMM,
                                           Opcode.SEND])
                pair.qp1.post_recv(RecvWR(wr_id=i, sg_list=[SGE(
                    pair.recv_mr.addr, nbytes, pair.recv_mr.lkey)]))
                pair.qp0.post_send(SendWR(
                    wr_id=i, opcode=opcode,
                    sg_list=[SGE(pair.send_mr.addr, nbytes,
                                 pair.send_mr.lkey)],
                    remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey,
                    imm_data=i, signaled=rng_local.random() < 0.7))

        for i, pair in enumerate(pairs):
            Process(env, poster(pair, random.Random(rng.randrange(1 << 30))),
                    name=f"poster{i}")
    return workload


def _timeout_delivery(nic, qp, wr, payload, nbytes, remote, arrival,
                      ack_latency):
    """The reference for ``nic._Delivery``: the fault-free arrival -> ACK
    -> send-CQE chain as ``Timeout`` callbacks, each stage labelled for
    the dispatch log."""
    from repro.ib.constants import Opcode, WCStatus
    from repro.ib.wr import WorkCompletion
    from repro.sim.core import Timeout

    env = nic.env

    def on_arrival(_event):
        remote._deliver(qp, wr, payload, nbytes)
        Timeout(env, ack_latency).callbacks.append(on_ack)

    def on_ack(_event):
        if wr.opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM):
            qp.release_rdma_slot()
        if wr.signaled:
            Timeout(env, nic.config.nic.t_cqe).callbacks.append(on_cqe)

    def on_cqe(_event):
        qp.send_cq.push(WorkCompletion(
            wr_id=wr.wr_id, status=WCStatus.SUCCESS,
            opcode=wr.opcode.wc_opcode, qp_num=qp.qp_num, byte_len=nbytes,
            completed_at=env._now))

    for stage, callback in enumerate((on_arrival, on_ack, on_cqe)):
        callback.label = ("delivery", stage, qp.qp_num, wr.wr_id)
    Timeout(env, max(0.0, arrival - env._now)).callbacks.append(on_arrival)


def _timeout_recv_completion(env, dest_qp, recv_wr, wr, nbytes, t_cqe):
    """The reference for ``nic._RecvCompletion``: a ``Timeout`` callback."""
    from repro.ib.constants import Opcode, WCOpcode, WCStatus
    from repro.ib.wr import WorkCompletion
    from repro.sim.core import Timeout

    def on_cqe(_event):
        dest_qp.recv_cq.push(WorkCompletion(
            wr_id=recv_wr.wr_id, status=WCStatus.SUCCESS,
            opcode=WCOpcode.RECV_RDMA_WITH_IMM
            if wr.opcode is Opcode.RDMA_WRITE_WITH_IMM else WCOpcode.RECV,
            qp_num=dest_qp.qp_num, byte_len=nbytes, imm_data=wr.imm_data,
            completed_at=env._now))

    on_cqe.label = ("recv-cqe", dest_qp.qp_num, wr.wr_id)
    Timeout(env, t_cqe).callbacks.append(on_cqe)


@pytest.mark.parametrize("seed", range(8))
def test_nic_timers_match_reference(seed, monkeypatch):
    """The NIC's calendar timers on this calendar against the Timeout
    chains they replaced on the reference one: same stages, same order,
    same times."""
    import repro.ib.nic as nic

    real, real_end = _run(Environment, _nic_traffic(seed))
    monkeypatch.setattr(nic, "_Delivery", _timeout_delivery)
    monkeypatch.setattr(nic, "_RecvCompletion", _timeout_recv_completion)
    ref, ref_end = _run(_ReferenceEnvironment, _nic_traffic(seed))
    assert real == ref
    assert real_end == ref_end
    # The workload does collide an ACK or CQE stage with other entries.
    at = {}
    for now, what in real:
        at.setdefault(now, []).append(what)
    assert any(len(whats) > 1 and ("delivery", 1) in
               [what[:2] for what in whats] for whats in at.values())
    kinds = {what[0] for _, what in real}
    assert {"delivery", "recv-cqe", "sleep"} <= kinds
    # Every WR is delivered and ACKed; the signaled ones complete.
    stages = [what[1] for _, what in real if what[0] == "delivery"]
    assert stages.count(0) == stages.count(1) == 48
    assert 0 < stages.count(2) < 48


def test_harness_catches_a_lane_staged_ahead_of_a_lower_seq_heap_entry(
        monkeypatch):
    """The planted bug: a colliding timestamp stages its lane deadlines
    before its heap entries, whatever their seq."""
    def stage_lanes_first(env, when):
        for lane in env._lanes.values():
            while lane and lane[0][0] == when:
                _, _, event = lane.popleft()
                if event._value is _PENDING:
                    env._cur_normal.append(_Expiry(event))
        env._lane_next = min((lane[0][0] for lane in env._lanes.values()
                              if lane), default=float("inf"))
        while env._heap and env._heap[0][0] == when:
            _, priority, _, entry = heapq.heappop(env._heap)
            if priority == PRIORITY_NORMAL:
                env._cur_normal.append(entry)
            else:
                env._cur_urgent.append(entry)

    def collision(env):
        notify = Notify(env)

        def sleeper():
            yield 0.5                       # wake at 0.5, seq 0

        def waiter():
            yield notify.wait(0.5)          # deadline at 0.5, seq 1

        env.process(sleeper())
        env.process(waiter())

    (real, _), (ref, _) = _both(collision)
    assert real == ref
    assert [what[0] for _, what in real][-3:] == ["sleep", "expire", "wake"]
    monkeypatch.setattr(Environment, "_open_deadlines", stage_lanes_first)
    (real, _), (ref, _) = _both(collision)
    assert real != ref


# -- direct wakes against the grant events they replace --------------------
#
# A primitive that wakes exactly one known process (a lock hand-off, a
# latch set or a due park deadline, a port grant, a freed RDMA slot)
# appends that process itself to the current batch, where
# ``succeed(None)`` on a grant event went before.  Each case runs one
# randomized workload twice: on the primitives as they are, and under
# :func:`_with_grant_events`, which swaps in test-local copies of the
# evented primitives they replaced.  The dispatch logs must match entry
# for entry (a dispatch that resumes a process logs as
# ``("resume", name)`` whether an event or the process itself was on
# the calendar), and so must every process's resume times and every
# grant order.


class _ResumeLog:
    """A ``KernelProfile`` stand-in: ``(time, what)`` per dispatch, and
    the direct wakes counted by the primitive the process parked on."""

    def __init__(self):
        self.log = []
        self.wakes: dict = {}

    def dispatch(self, now, event, callbacks):
        # The resume is the last callback (an evented get stores its
        # item ahead of it).
        owner = getattr(callbacks[-1], "__self__", None) if callbacks else None
        if isinstance(owner, Process):
            what = ("resume", owner.name)
            if event is owner and owner._target is not None:
                kind = type(owner._target).__name__
                self.wakes[kind] = self.wakes.get(kind, 0) + 1
        else:
            what = (type(event).__name__,)
        self.log.append((now, what))
        for callback in callbacks:
            callback(event)


def _grant_event(env, cls=Event):
    """What a park was before: a fresh event the active process waits
    on, hooked up exactly as ``yield event`` hooks it up."""
    proc = env.active_process
    event = cls(env)
    event.callbacks.append(proc._resume)
    proc._target = event
    return event


def _evented_hold(lock):
    if not lock._locked:
        lock._locked = True
        return ()
    lock.contended_count += 1
    lock._waiting.append(_grant_event(lock.env))
    return (PARKED,)


def _evented_release(lock):
    if not lock._locked:
        raise SimulationError("release() of an unlocked SimLock")
    if lock._waiting:
        lock._waiting.popleft().succeed(None)
    else:
        lock._locked = False


class _EventPark(Event):
    """The event a parked ``Notify.wait`` was: the set succeeds it, a
    due lane deadline expires it."""

    __slots__ = ("_parked",)

    def _expire(self):
        self._parked.remove(self)
        self.succeed(None)


def _evented_wait(notify, fallback=None):
    env = notify.env
    park = _grant_event(env, _EventPark)
    if notify.pending:
        park.succeed(None)
        return PARKED
    if fallback is not None:
        when = env._now + fallback
        if when > env._now:
            lane = env._lanes.setdefault(fallback, deque())
            env._lane_next = min(env._lane_next, when)
            seq = env._seq
            env._seq = seq + 1
            lane.append((when, seq, park))
        else:
            env._cur_normal.append(_Expiry(park))
    park._parked = notify._parked
    notify._parked.append(park)
    return PARKED


def _evented_set(notify):
    if not notify.pending:
        notify.pending = True
        notify.set_count += 1
        for park in notify._parked:
            park.succeed(None)
        notify._parked.clear()


def _evented_claim(res):
    req = Request()
    if len(res._users) < res.capacity:
        res._users.add(req)
        return req
    req.waiter = _grant_event(res.env)    # not None: the caller parks
    res._waiting.append(req)
    return req


def _evented_release_slot(res, req):
    if req in res._users:
        res._users.remove(req)
    elif req in res._waiting:
        res._waiting.remove(req)
        return
    else:
        raise SimulationError("release() of a request that holds no slot")
    if res._waiting:
        nxt = res._waiting.popleft()
        res._users.add(nxt)
        grant, nxt.waiter = nxt.waiter, None
        grant.succeed(None)


def _evented_wait_rdma_slot(qp):
    grant = _grant_event(qp.nic.env)
    if (qp.state is QPState.ERROR
            or qp.outstanding_rdma < qp.max_outstanding_rdma):
        grant.succeed(None)
    else:
        qp._slot_waiters.append(grant)
    return PARKED


def _evented_notify_slot_free(qp):
    waiters = qp._slot_waiters
    while waiters and qp.outstanding_rdma < qp.max_outstanding_rdma:
        waiters.pop(0).succeed(None)


def _evented_get(store):
    """What ``Store.get`` was: a get event that carries the item through
    the batch and, dispatched, leaves it where the consumer takes it."""
    event = _grant_event(store.env)
    event.callbacks.insert(0, lambda ev: setattr(store, "handed", ev._value))
    if store.items:
        event.succeed(store.items.pop(0))
    else:
        store._getter = event
    return PARKED


def _evented_push(store, item):
    if store._getter is None:
        store.items.append(item)
    else:
        getter, store._getter = store._getter, None
        getter.succeed(item)


def _evented_hand_off(store, item):
    if store._getter is None:
        store.items.append(item)
        return
    getter, store._getter = store._getter, None
    getter._ok = True
    getter._value = item
    getter._processed = True
    callbacks, getter.callbacks = getter.callbacks, None
    for callback in callbacks:
        callback(getter)


_GRANT_EVENTS = [
    (Store, "get", _evented_get),
    (Store, "push", _evented_push),
    (Store, "hand_off", _evented_hand_off),
    (SimLock, "hold", _evented_hold),
    (SimLock, "release", _evented_release),
    (Notify, "wait", _evented_wait),
    (Notify, "set", _evented_set),
    (Resource, "claim", _evented_claim),
    (Resource, "release", _evented_release_slot),
    (QueuePair, "wait_rdma_slot", _evented_wait_rdma_slot),
    (QueuePair, "notify_slot_free", _evented_notify_slot_free),
]


def _with_grant_events(run):
    """``run()`` with every parking primitive's evented copy patched in."""
    with pytest.MonkeyPatch.context() as patch:
        for cls, name, evented in _GRANT_EVENTS:
            patch.setattr(cls, name, evented)
        return run()


class _EarlyWake(deque):
    """A planted bug in every wake: a woken process (one that still names
    the primitive it parked on) jumps its batch, into the urgent deque
    or to the head of the normal one."""

    def __init__(self, env, where):
        super().__init__()
        self.env = env
        self.where = where

    def append(self, entry):
        if isinstance(entry, Process) and entry._target is not None:
            if self.where == "urgent":
                self.env._cur_urgent.append(entry)
            else:
                self.appendleft(entry)
        else:
            super().append(entry)


#: Binary-fraction times: sums are exact, so wakes land on the very
#: timestamps of sleeps, deadlines and other wakes.
_TICK = 2.0 ** -20


def _mixed(env, trace, rng):
    """Eight processes contend for two locks, an atomic counter and a
    two-slot resource, and park on two latches: with no fallback, a
    zero one, short ones that come due (live lane deadlines) and long
    ones a set beats (stale ones).  Sets land in the timestamps of
    deadlines, of lock hand-offs and of each other."""
    locks = [SimLock(env), SimLock(env)]
    counter = AtomicCounter(env, access_cost=_TICK)
    res = Resource(env, capacity=2)
    latches = [Notify(env), Notify(env)]

    def proc(name, rng):
        for _ in range(16):
            roll = rng.random()
            if roll < 0.2:
                lock = rng.choice(locks)
                yield from lock.hold()
                trace.append((name, env.now, "lock", locks.index(lock)))
                yield _TICK * rng.choice([1, 1, 2, 3])
                lock.release()
            elif roll < 0.3:
                value = yield from counter.add_and_fetch(1)
                trace.append((name, env.now, "counter", value))
            elif roll < 0.45:
                req = res.claim()
                if req.waiter is not None:
                    yield PARKED
                trace.append((name, env.now, "slot"))
                yield _TICK * rng.choice([1, 2, 4])
                res.release(req)
            elif roll < 0.75:
                latch = rng.choice(latches)
                if latch.pending:
                    latch.consume()
                yield latch.wait(rng.choice(
                    [None, 0.0, _TICK, 2 * _TICK, 4 * _TICK, 1.0]))
                trace.append((name, env.now, "woke", latches.index(latch)))
            elif roll < 0.85:
                rng.choice(latches).set()
                trace.append((name, env.now, "set"))
                yield _TICK * rng.choice([0, 1, 2])
            elif roll < 0.93:
                yield _TICK * rng.choice([0, 1, 2, 4])
            else:
                yield env.timeout(_TICK * rng.choice([0, 1, 2]))

    def kicker():
        # Ends the None-fallback parks and stales the long deadlines.
        for _ in range(400):
            yield 4 * _TICK
            latches[0].set()
            latches[1].set()

    for i in range(8):
        Process(env, proc(f"p{i}", random.Random(rng.randrange(1 << 30))),
                name=f"p{i}")
    Process(env, kicker(), name="kicker")


def _ports(env, trace, rng):
    """Three QP pairs on one port of a two-node fabric post bursts of
    one- to many-chunk RDMA writes past the outstanding-RDMA cap: their
    send engines contend for the egress port, the posters park for
    RDMA slots, and one QP dies mid-stream (its parked poster wakes on
    the ERROR transition, and a wait on the dead QP returns at once)."""
    from dataclasses import replace

    from repro.config import NIAGARA
    from repro.ib import verbs
    from repro.ib.constants import Opcode
    from repro.ib.wr import SGE, RecvWR, SendWR
    from tests.test_ib.conftest import Pair

    config = replace(
        NIAGARA,
        nic=replace(NIAGARA.nic, line_rate=2.0 ** 30, qp_rate=2.0 ** 30,
                    t_wqe=_TICK, t_pkt=_TICK / 8, t_cqe=_TICK),
        link=replace(NIAGARA.link, latency=8 * _TICK))
    pair = Pair(env, config=config, bufsize=128 * 1024, backed=False)
    qps = [(pair.qp0, pair.qp1)]
    for _ in range(2):
        send = verbs.ibv_create_qp(pair.ctx0, pair.pd0, pair.cq0, pair.cq0)
        recv = verbs.ibv_create_qp(pair.ctx1, pair.pd1, pair.cq1, pair.cq1)
        verbs.connect_qps(send, recv)
        qps.append((send, recv))
    assert len({send.egress for send, _ in qps}) == 1

    def poster(name, send, recv, rng):
        for n in range(28):
            yield _TICK * rng.choice([0, 0, 1, 2])
            while send.outstanding_rdma >= send.max_outstanding_rdma:
                yield send.wait_rdma_slot()
                trace.append((name, env.now, "slot", send.state.value))
            if send.state is not QPState.RTS:
                trace.append((name, env.now, "dead"))
                yield send.wait_rdma_slot()     # a dead QP: at once
                trace.append((name, env.now, "dead"))
                return
            nbytes = rng.choice([512, 8192, 40_000, 100_000])
            recv.post_recv(RecvWR(wr_id=n))
            send.post_send(SendWR(
                wr_id=n, opcode=Opcode.RDMA_WRITE_WITH_IMM,
                sg_list=[SGE(pair.send_mr.addr, nbytes, pair.send_mr.lkey)],
                remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey,
                imm_data=n, signaled=rng.random() < 0.5))
            trace.append((name, env.now, "posted", n))

    def killer():
        yield 600 * _TICK
        qps[2][0].to_error()
        trace.append(("killer", env.now))

    def metronome():
        # An entry on every tick's timestamp: a wake that jumps its
        # batch jumps this too.
        for _ in range(3000):
            yield _TICK

    for i, (send, recv) in enumerate(qps):
        Process(env, poster(f"poster{i}", send, recv,
                            random.Random(rng.randrange(1 << 30))),
                name=f"poster{i}")
    Process(env, killer(), name="killer")
    Process(env, metronome(), name="metronome")


def _queues(env, trace, rng):
    """Two QPs' posters feed the NIC's send queues in bursts of one to
    four WRs per instant: ``post_send`` pushes each WR to the fetch
    stage, which hands it to the transmit stage in place.  One poster
    kills its QP in the very instant of a burst, so the first WR of
    the burst is already handed to the woken fetch stage (which flushes
    it) while the rest still sit in the SQ (which ``to_error`` flushes).
    Every flush is logged with the path that made it."""
    from dataclasses import replace

    from repro.config import NIAGARA
    from repro.ib import verbs
    from repro.ib.constants import Opcode
    from repro.ib.wr import SGE, RecvWR, SendWR
    from tests.test_ib.conftest import Pair

    config = replace(
        NIAGARA,
        nic=replace(NIAGARA.nic, line_rate=2.0 ** 30, qp_rate=2.0 ** 30,
                    t_wqe=_TICK, t_pkt=_TICK / 8, t_cqe=_TICK),
        link=replace(NIAGARA.link, latency=8 * _TICK))
    pair = Pair(env, config=config, bufsize=64 * 1024, backed=False)
    send = verbs.ibv_create_qp(pair.ctx0, pair.pd0, pair.cq0, pair.cq0)
    recv = verbs.ibv_create_qp(pair.ctx1, pair.pd1, pair.cq1, pair.cq1)
    verbs.connect_qps(send, recv)
    nic = pair.qp0.nic
    engine_flush = nic._flush_wr

    def logged_flush(qp, wr):
        trace.append(("flush", env.now, "engine", qp.qp_num, wr.wr_id))
        engine_flush(qp, wr)

    nic._flush_wr = logged_flush

    def poster(name, send, recv, rng, kill_at):
        wr_id = 0
        for burst in range(24):
            yield _TICK * rng.choice([0, 1, 1, 2, 3])
            size = 3 if burst == kill_at else rng.choice([1, 2, 3, 4])
            # The whole burst posts in one instant.
            while (send.max_outstanding_rdma - send.outstanding_rdma
                   < size):
                yield _TICK
            for _ in range(size):
                wr_id += 1
                recv.post_recv(RecvWR(wr_id=wr_id))
                send.post_send(SendWR(
                    wr_id=wr_id, opcode=Opcode.RDMA_WRITE_WITH_IMM,
                    sg_list=[SGE(pair.send_mr.addr,
                                 rng.choice([256, 4096, 20_000]),
                                 pair.send_mr.lkey)],
                    remote_addr=pair.recv_mr.addr, rkey=pair.recv_mr.rkey,
                    imm_data=wr_id, signaled=rng.random() < 0.7))
                trace.append((name, env.now, "posted", wr_id, send.sq_depth))
            if burst == kill_at:
                send.to_error()
                trace.append((name, env.now, "killed", send.qp_num))
                return

    Process(env, poster("poster0", pair.qp0, pair.qp1,
                        random.Random(rng.randrange(1 << 30)), None),
            name="poster0")
    Process(env, poster("poster1", send, recv,
                        random.Random(rng.randrange(1 << 30)), 9),
            name="poster1")

    def reaper():
        # After the run: every send CQE, in CQ order, names its path (a
        # flush the engine did not log came from ``to_error``'s drain).
        yield 1.0
        for wc in list(pair.cq0._entries):
            trace.append(("cqe", wc.completed_at, wc.qp_num, wc.wr_id,
                          wc.status.value))

    Process(env, reaper(), name="reaper")


_WAKE_WORKLOADS = {"mixed": _mixed, "ports": _ports, "queues": _queues}


def _wake_run(workload, seed, plant=None):
    """``(dispatch log, trace, end time, wakes)`` of one run."""
    env = Environment()
    env._profile = _ResumeLog()
    if plant is not None:
        env._cur_normal = _EarlyWake(env, plant)
    trace: list = []
    workload(env, trace, random.Random(seed))
    env.run()
    return env._profile.log, trace, env.now, env._profile.wakes


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("workload", sorted(_WAKE_WORKLOADS))
def test_direct_wakes_match_grant_events(workload, seed):
    run = _WAKE_WORKLOADS[workload]
    old_log, old_trace, old_end, _ = _with_grant_events(
        lambda: _wake_run(run, seed))
    new_log, new_trace, new_end, wakes = _wake_run(run, seed)
    assert _per_process(r[:2] for r in new_trace) == \
        _per_process(r[:2] for r in old_trace)
    assert new_trace == old_trace           # grant order included
    assert new_log == old_log
    assert new_end == old_end
    # Every primitive of the workload did wake a parked process.
    kinds = {what[0] for _, what in new_log}
    if workload == "mixed":
        assert {"SimLock", "_Park", "Resource"} <= set(wakes)
        # Live deadlines came due, and sets beat others (stale ones).
        assert "_Expiry" in kinds
        assert wakes["_Park"] > sum(what == ("_Expiry",)
                                    for _, what in new_log)
    elif workload == "ports":
        assert {"Resource", "QueuePair"} <= set(wakes)
        assert ("poster2", "dead") in [r[::2] for r in new_trace]
    else:
        assert "Store" in wakes
        # The kill landed while the fetch stage held the burst's first
        # WR: the engine flushed that one and the drain the rest.
        killed = next(r for r in new_trace if r[2] == "killed")
        flushes = [r for r in new_trace if r[0] == "flush"]
        in_burst = {r[3] for r in new_trace
                    if r[:3] == ("poster1", killed[1], "posted")}
        by_engine = {r[4]: r[1] for r in flushes if r[3] == killed[3]}
        drained = {r[3] for r in new_trace if r[0] == "cqe"
                   and r[2] == killed[3] and r[3] not in by_engine
                   and r[4] == WCStatus.WR_FLUSH_ERR.value}
        first = min(in_burst)
        assert by_engine[first] == killed[1]
        assert drained == in_burst - {first}


@pytest.mark.parametrize("plant", ["urgent", "head"])
@pytest.mark.parametrize("workload", sorted(_WAKE_WORKLOADS))
def test_harness_catches_a_wake_out_of_turn(workload, plant):
    """The planted bug: a woken process jumps its batch."""
    run = _WAKE_WORKLOADS[workload]
    old_log, old_trace, _, _ = _with_grant_events(lambda: _wake_run(run, 0))
    new_log, new_trace, _, _ = _wake_run(run, 0, plant=plant)
    assert new_log != old_log


def test_a_parked_process_resumes_with_none_off_the_calendar():
    env = Environment()
    lock = SimLock(env)
    seen = []

    def holder():
        yield from lock.hold()
        yield 1.0
        lock.release()

    def waiter():
        parts = lock.hold()
        assert parts == (PARKED,)
        seen.append((yield parts[0]))

    env.process(holder())
    env.process(waiter())
    env.run(until=0.5)
    # The waiter is queued on the lock only: the heap holds the holder's
    # sleep and nothing else.
    assert len(env._heap) == 1 and list(lock._waiting)[0].name == "waiter"
    env.run()
    assert seen == [None] and env.now == 1.0
