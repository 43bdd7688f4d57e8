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
from repro.sim.core import Environment, Event, _Expiry, _INF


class SimLock:
    """A mutex for simulated processes.

    ``acquire`` returns an event that fires when the lock is granted;
    ``hold`` is the same acquisition for ``yield from`` that takes a
    free lock in place (no event, no generator) and parks only when
    contended.
    """

    __slots__ = ("env", "_locked", "_waiting", "contended_count")

    def __init__(self, env: Environment):
        self.env = env
        self._locked = False
        self._waiting: Deque[Event] = deque()
        #: Number of acquisition attempts that found the lock busy: each
        #: contended ``acquire``/``hold`` counts once (when it queues, not
        #: again at the hand-off).
        self.contended_count = 0

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self) -> Event:
        """Blockingly claim the lock; fires when held."""
        ev = Event(self.env)
        if not self._locked:
            self._locked = True
            ev.succeed(None)
        else:
            self.contended_count += 1
            self._waiting.append(ev)
        return ev

    def hold(self) -> tuple:
        """Blockingly claim the lock; ``yield from`` the result.

        ``yield from lock.hold()`` is ``yield lock.acquire()`` without
        the grant event of an uncontended acquisition: a free lock is
        taken in place and an empty tuple comes back, so the caller
        carries on at the same virtual time; a busy one queues behind
        the holder and the tuple holds the hand-off event to wait on,
        FIFO with ``acquire`` waiters.  A tuple rather than a generator:
        nothing is left suspended between the caller and the kernel.
        """
        if self._locked:
            return (self.acquire(),)
        self._locked = True
        return ()

    def release(self) -> None:
        """Release; hands the lock to the oldest waiter if any."""
        if not self._locked:
            raise SimulationError("release() of an unlocked SimLock")
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed(None)  # lock stays held, ownership transfers
        else:
            self._locked = False


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

    def __init__(self, env: Environment, initial: int = 0, access_cost: float = 0.0):
        if access_cost < 0:
            raise ValueError(f"negative access_cost: {access_cost}")
        self.env = env
        self._value = initial
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


class _Park(Event):
    """One parked :meth:`Notify.wait`: the event the waiter yields.

    ``set`` succeeds it directly.  Its fallback deadline sits in the
    calendar's lane for that delay; the dispatch loop calls
    :meth:`_expire` at the deadline only if no set got there first, and
    that wakes the waiter and drops the park from the latch.
    """

    __slots__ = ("_parked",)

    def _expire(self) -> None:
        self._parked.remove(self)
        self.succeed(None)


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
            for park in self._parked:
                park.succeed(None)
            self._parked.clear()

    def consume(self) -> None:
        """Re-arm after observing a pending set (edge-triggered reset)."""
        self.pending = False

    def wait(self, fallback: Optional[float] = None) -> Event:
        """Event firing on the next set (or after ``fallback`` seconds).

        A set that landed before this call and has not been consumed
        fires it immediately, so a parker can never sleep through a
        wakeup it has not consumed.  The fallback deadline goes on the
        calendar exactly where a ``Timeout(fallback)`` would, but in the
        deadline lane for its delay: one tuple, and a deadline a set
        beat is popped without a dispatch (nothing observes it).
        """
        env = self.env
        park = _Park(env)
        if self.pending:
            park.succeed(None)
            return park
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
        park._parked = self._parked
        self._parked.append(park)
        return park


class SimBarrier:
    """A reusable barrier for ``parties`` simulated processes."""

    __slots__ = ("env", "parties", "_count", "_generation_event")

    def __init__(self, env: Environment, parties: int):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
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
