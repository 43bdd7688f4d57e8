"""Synchronization primitives with modelled costs.

The paper's runtime serializes threads at two points that matter to its
results:

* the **atomic add-and-fetch** in ``MPI_Pready`` — at high partition
  counts threads "take turns to increment the atomic counter", which the
  paper identifies as a source of arrival skew (Section V-C3, Fig. 12);
* the **progress-engine lock** — a single thread progresses MPI at a
  time (Section IV-A).

:class:`AtomicCounter` and :class:`SimLock` model the first (and the
baseline's UCX worker lock), charging a configurable per-access
virtual-time cost while held, so contention produces the same skew in
simulation as on real hardware.  The progress-engine lock is only ever
tried, never waited on, so :class:`~repro.engine.progress.ProgressEngine`
keeps it as a flag.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimTimeError, SimulationError
from repro.sim.core import (
    PARKED, Environment, Event, _Expiry, _INF, _PENDING, _count, _park_error)

#: What a contended :meth:`SimLock.hold` returns: ``yield from`` it
#: yields :data:`PARKED` once.
_QUEUED = (PARKED,)


class SimLock:
    """A mutex for simulated processes, taken with ``yield from hold()``.

    A free lock is taken in place; a busy one queues the active process
    itself (no grant event), FIFO, and :meth:`release` hands the lock
    over by appending the oldest waiter to the current batch.
    """

    __slots__ = ("env", "_locked", "_waiting", "contended_count")

    def __init__(self, env: Environment):
        self.env = env
        self._locked = False
        #: Queued processes, oldest first.
        self._waiting: Deque = deque()
        #: Number of acquisition attempts that found the lock busy: each
        #: contended ``hold`` counts once (when it queues, not again at
        #: the hand-off).
        self.contended_count = 0

    def hold(self) -> tuple:
        """Blockingly claim the lock; ``yield from`` the result.

        A free lock is taken in place and an empty tuple comes back, so
        the caller carries on at the same virtual time.  A busy one
        queues the active process behind the holder and the tuple holds
        :data:`~repro.sim.core.PARKED`: the process resumes, holding the
        lock, when :meth:`release` hands it over.  A tuple rather than a
        generator: nothing is left suspended between the caller and the
        kernel.
        """
        if not self._locked:
            self._locked = True
            return ()
        proc = self.env.active_process
        if proc is None or proc._target is not None:
            raise _park_error(proc, "SimLock.hold()")
        self.contended_count += 1
        self._waiting.append(proc)
        proc._target = self
        return _QUEUED

    def release(self) -> None:
        """Release; hands the lock to the oldest waiter if any."""
        if not self._locked:
            raise SimulationError("release() of an unlocked SimLock")
        if self._waiting:
            # The lock stays held: ownership transfers to the waiter,
            # which resumes where ``succeed(None)`` on a grant would.
            self.env._cur_normal.append(self._waiting.popleft())
        else:
            self._locked = False

    def _unpark(self, proc) -> None:
        if proc in self._waiting:
            self._waiting.remove(proc)


class AtomicCounter:
    """A contended atomic integer with a per-access time cost.

    ``add_and_fetch`` models an atomic RMW: accesses serialize on an
    internal lock and each holds it for ``access_cost`` virtual seconds
    (cache-line ping-pong on real hardware).  The method is a *process
    body*: call it as ``value = yield from counter.add_and_fetch(env, 1)``.

    With ``access_cost == 0`` accesses are instantaneous but still
    atomic (trivially so, under DES single-stepping).
    """

    __slots__ = ("env", "_value", "access_cost", "_lock", "access_count")

    def __init__(self, env: Environment, access_cost: float = 0.0):
        if not 0.0 <= access_cost < _INF:
            raise ValueError(
                f"access_cost must be finite and >= 0, got {access_cost}")
        self.env = env
        self._value = 0
        self.access_cost = access_cost
        self._lock = SimLock(env)
        #: total accesses, for contention statistics
        self.access_count = 0

    @property
    def value(self) -> int:
        """Current value (racy peek, as on real hardware)."""
        return self._value

    def add_and_fetch(self, delta: int = 1):
        """Atomically add ``delta``; yields, returns the new value."""
        yield from self._lock.hold()
        try:
            if self.access_cost > 0:
                yield self.access_cost
            self._value += delta
            self.access_count += 1
            return self._value
        finally:
            self._lock.release()


class _Park:
    """One parked :meth:`Notify.wait`: its process and its latch.

    ``_value`` is pending while the process is parked; ``set`` and the
    fallback deadline give it a value as they wake the process.  The
    deadline sits in the calendar's lane for that delay, and the
    dispatch loop calls :meth:`_expire` at the deadline only if no set
    got there first (the lane's stale-deadline test reads ``_value``).
    """

    __slots__ = ("_value", "_proc", "_parked")

    def _expire(self) -> None:
        self._parked.remove(self)
        self._value = None
        proc = self._proc
        proc.env._cur_normal.append(proc)

    def _unpark(self, _proc) -> None:
        if self in self._parked:
            self._parked.remove(self)


class Notify:
    """An edge-triggered wakeup latch (the progress engine's *kick*).

    ``set`` arms the latch and wakes everything parked in :meth:`wait`;
    repeated sets before a consume coalesce into one wakeup, matching
    completion-channel semantics.  A consumer that finds the latch
    ``pending`` calls :meth:`consume` to re-arm it and re-checks its
    condition — this check-consume-recheck discipline is what makes a
    set landing *between* a predicate check and the park impossible to
    lose.
    """

    __slots__ = ("env", "pending", "_parked", "set_count")

    def __init__(self, env: Environment):
        self.env = env
        #: Whether a set has landed since the last :meth:`consume`
        #: (read it; only ``set`` and ``consume`` write it).
        self.pending = False
        #: Live parks, oldest first; a park leaves when it is woken or
        #: when its fallback expires.
        self._parked: list[_Park] = []
        #: Total sets that armed the latch (coalesced sets not counted).
        self.set_count = 0

    def set(self) -> None:
        """Arm the latch, waking every parked waiter (idempotent)."""
        if not self.pending:
            self.pending = True
            self.set_count += 1
            parked = self._parked
            if parked:
                wake = self.env._cur_normal.append
                for park in parked:
                    park._value = None
                    wake(park._proc)
                parked.clear()

    def consume(self) -> None:
        """Re-arm after observing a pending set (edge-triggered reset)."""
        self.pending = False

    def wait(self, fallback: Optional[float] = None):
        """Park the active process until the next set (or for at most
        ``fallback`` seconds); ``yield`` the result.

        Returns :data:`~repro.sim.core.PARKED`.  A set that landed
        before this call and has not been consumed wakes the process at
        once, so a parker can never sleep through a wakeup it has not
        consumed.  The fallback deadline goes on the calendar exactly
        where a ``Timeout(fallback)`` would, but in the deadline lane
        for its delay: one tuple, and a deadline a set beat is popped
        without a dispatch (nothing observes it).
        """
        env = self.env
        proc = env.active_process
        if proc is None or proc._target is not None:
            raise _park_error(proc, "Notify.wait()")
        if self.pending:
            env._cur_normal.append(proc)
            return PARKED
        # Fields set here, not in an ``__init__``: one park per idle
        # poll of every progress engine.
        park = _Park()
        park._value = _PENDING
        park._proc = proc
        park._parked = self._parked
        if fallback is not None:
            now = env._now
            when = now + fallback
            if when > now:
                if when == _INF:
                    raise SimTimeError(f"fallback not finite: {fallback}")
                lane = env._lanes.get(fallback)
                if lane is None:
                    lane = env._lanes[fallback] = deque()
                if when < env._lane_next:
                    env._lane_next = when
                seq = env._seq
                env._seq = seq + 1
                lane.append((when, seq, park))
            elif fallback >= 0:
                env._cur_normal.append(_Expiry(park))
            else:
                raise SimTimeError(f"fallback not >= 0: {fallback}")
        self._parked.append(park)
        proc._target = park
        return PARKED


class SimBarrier:
    """A reusable barrier for ``parties`` simulated processes."""

    __slots__ = ("env", "parties", "_count", "_generation_event")

    def __init__(self, env: Environment, parties: int):
        parties = _count("parties", parties)
        self.env = env
        self.parties = parties
        self._count = 0
        self._generation_event = Event(env)

    def wait(self) -> Event:
        """Returns an event that fires when all parties have arrived."""
        self._count += 1
        current = self._generation_event
        if self._count == self.parties:
            self._count = 0
            self._generation_event = Event(self.env)
            current.succeed(None)
        return current
