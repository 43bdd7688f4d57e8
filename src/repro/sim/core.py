"""Environment and basic event types for the DES kernel.

Scheduling preserves the exact ``(time, priority, seq)`` FIFO contract
the simulator has always had — same-time, same-priority events fire in
insertion order, which makes repeated runs bit-identical — but the
implementation is a *bucketed calendar* tuned for the workload's
actual shape rather than a single binary heap:

* events scheduled **at the current time** (``delay == 0`` — roughly
  half of all events: ``succeed()``/``fail()`` calls, process
  bootstraps, wakes and completions) go straight into the current dispatch
  batch, a pair of deques (urgent/normal) drained FIFO.  They never
  touch the heap at all;
* **future** events fall back to a binary heap of
  ``(time, priority, seq, event)`` entries, exactly the historical
  structure;
* ``PRIORITY_URGENT`` and ``PRIORITY_NORMAL`` are the only priorities:
  ``succeed``/``fail`` refuse any other;
* **deadlines** that are usually resolved before they come due (a
  parked :meth:`~repro.sim.sync.Notify.wait`'s fallback) ride one FIFO
  *lane* per delay instead of the heap: times never decrease and a lane
  has one delay, so append order is firing order.  A deadline whose
  event already fired is popped (the clock still advances to it) but
  nothing is dispatched.

Two kinds of entry are dispatched as themselves, by one direct call
``entry._resume(entry)`` instead of a callback list: a process (the
process *is* its own wake — at its bootstrap, when a sleep on a bare
number ends, and when a primitive it parked on with :data:`PARKED`
wakes it) and a :class:`Timer` (a slotted entry such as one WR's
delivery chain in :mod:`repro.ib.nic`, or a due lane deadline).  They
are the calendar entries whose ``_value`` is still pending; every
event on the calendar has been given its value.

When virtual time advances, a timestamp holding a single heap entry —
the overwhelmingly common case — dispatches straight out of the heap;
a colliding timestamp, or one a lane deadline is due at, moves all its
heap and lane entries into the batch deques in one go, in
``(priority, seq)`` order.  Either way dispatch happens in the single
tight loop of :meth:`Environment._drain` with no per-event method-call
overhead.  Ordering is identical to the heap-only scheduler by
construction: heap and lane entries at a timestamp always predate
(lower ``seq``) anything appended to the batch while it runs, and urgent
arrivals preempt queued normal events on every iteration.
``tests/test_sim/test_scheduler_equiv.py`` holds the scheduler to that
equivalence property under randomized floods.
"""

from __future__ import annotations

import operator
from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimTimeError, SimulationError

if TYPE_CHECKING:
    from repro.sim.sync import _Park

#: Priority for events that must fire before ordinary ones at the same time
#: (used internally for process initialization and completion).
PRIORITY_URGENT: int = 0
#: Default priority for ordinary events.
PRIORITY_NORMAL: int = 1

_PENDING = object()  # sentinel: event value not yet set

_INF = float("inf")


#: What a parking primitive returns and its caller yields at once: the
#: active process is queued on the primitive, off the calendar, and the
#: primitive wakes it by appending the process itself to the current
#: batch — exactly where ``succeed(None)`` on a grant event would have
#: gone — so it resumes with ``None`` through the dispatch loop's direct
#: call.  The primitive records itself as the process's ``_target``;
#: whatever a ``_target`` is implements ``_unpark(process)``, which
#: :meth:`Environment.close` uses to unhook a process still parked.
PARKED = object()


def _count(name: str, value) -> int:
    """``value`` as an integer count of at least 1, else ValueError."""
    try:
        count = operator.index(value)
    except TypeError:
        count = 0
    if count < 1 or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def _park_error(proc, primitive: str) -> SimulationError:
    """Why the active process ``proc`` may not park on ``primitive``."""
    if proc is None:
        return SimulationError(f"{primitive} parks the active process, "
                               "and none is running")
    return SimulationError(f"{primitive}: process {proc.name!r} is already "
                           "queued; yield PARKED at once")


class Event:
    """A happening at a point in simulated time.

    An event moves through three states:

    * *pending* — created, not yet scheduled;
    * *triggered* — given a value (or failure) and placed on the queue;
    * *processed* — callbacks have run.

    Processes wait on events by ``yield``-ing them; arbitrary code can
    attach callbacks via :attr:`callbacks`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_processed", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: list of callables invoked with this event when it is processed;
        #: ``None`` once processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        self._defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    def _unpark(self, proc) -> None:
        """Unhook ``proc``, which waits on this event (for ``close``)."""
        if self.callbacks:
            try:
                self.callbacks.remove(proc._resume)
            except ValueError:
                pass

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run.

        An event that fails with no waiting process would otherwise abort
        :meth:`Environment.run` to avoid silently swallowing errors.
        """
        self._defused = True

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        env = self.env
        if priority == 1:
            env._cur_normal.append(self)
        elif priority == 0:
            env._cur_urgent.append(self)
        else:
            self._refuse(priority)
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        env = self.env
        if priority == 1:
            env._cur_normal.append(self)
        elif priority == 0:
            env._cur_urgent.append(self)
        else:
            self._refuse(priority)
        return self

    def _refuse(self, priority) -> None:
        """Untrigger, then refuse a priority the calendar has no lane for."""
        self._ok = None
        self._value = _PENDING
        raise ValueError(f"priority must be PRIORITY_URGENT (0) or "
                         f"PRIORITY_NORMAL (1), got {priority!r}")

    def __repr__(self) -> str:
        state = (
            "processed" if self._processed
            else "triggered" if self._value is not _PENDING
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay.

    Timeouts are triggered at construction; yielding one suspends the
    process for ``delay`` units of virtual time.  Construction is fully
    inlined (no ``super().__init__`` hop): timeouts are the single
    most-allocated event type on the hot path.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        now = env._now
        when = now + delay
        if when > now:
            if when == _INF:
                raise SimTimeError(f"timeout delay not finite: {delay}")
            seq = env._seq
            env._seq = seq + 1
            heappush(env._heap, (when, 1, seq, self))
        elif delay >= 0:
            env._cur_normal.append(self)
        else:
            raise SimTimeError(f"timeout delay not >= 0: {delay}")

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Timer:
    """A calendar entry that is not an event.

    Nothing yields a timer and nothing subscribes to it: the dispatch
    loop calls ``timer._resume(timer)`` at its time, one direct call
    where a :class:`Timeout` pays a callback list and a closure.  A
    subclass is a slotted record of what its stage needs, schedules
    itself (a ``(time, PRIORITY_NORMAL, seq, timer)`` heap entry, or the
    current batch for a zero delay, exactly where a ``Timeout`` of the
    same delay would go) and may re-schedule itself from ``_resume`` to
    run a chain of stages as one entry.  The class attribute ``_value``
    is what marks it as a direct entry on the calendar; a subclass
    defines ``_resume(self, _entry)``.
    """

    __slots__ = ()

    _value = _PENDING


class _Expiry(Timer):
    """A due lane deadline, staged into its timestamp's batch: at its
    turn it expires the parked wait, unless a set woke it first.

    A lane entry is not an :class:`Event` but a
    :class:`repro.sim.sync._Park`, one parked :meth:`Notify.wait
    <repro.sim.sync.Notify.wait>`: the only kind of waiter with a
    deadline lane and an ``_expire``.
    """

    __slots__ = ("park",)

    def __init__(self, park: _Park):
        self.park = park

    def _resume(self, _entry) -> None:
        if self.park._value is _PENDING:
            self.park._expire()


class _Wake(Event):
    """A kernel-internal wakeup event.

    Used only by :class:`~repro.sim.process.Process` to resume a process
    that yielded an already-processed event, with that event's outcome.
    A bootstrap, a sleep and a parked wake are the process itself on
    the calendar, and need none.
    """

    __slots__ = ()


class Environment:
    """Execution environment: virtual clock plus calendar queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Far-future events: a heap of ``(time, priority, seq, event)``.
        self._heap: list[tuple[float, int, int, Event]] = []
        #: Current-timestamp batch, drained FIFO.  Urgent events preempt
        #: queued normal ones.
        self._cur_urgent: deque[Event] = deque()
        self._cur_normal: deque[Event] = deque()
        #: Deadline lanes, one per delay: FIFOs of ``(time, seq, park)``
        #: at priority normal, each ``park`` a parked
        #: :meth:`repro.sim.sync.Notify.wait`, and the earliest lane head
        #: (``inf`` with every lane empty).
        self._lanes: dict[float, deque[tuple[float, int, _Park]]] = {}
        self._lane_next = _INF
        self._seq = 0
        #: Optional :class:`~repro.sim.profile.KernelProfile` hook; when
        #: set, the dispatch loop records per-event-type counts/timings.
        self._profile = None
        #: The process currently being resumed, if any.
        self.active_process = None
        #: Every process that has not finished, in start order: what
        #: :meth:`close` shuts down.
        self._live: dict = {}
        self._closed = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event factories ------------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator) -> "Process":
        """Start a new simulated process running ``generator``."""
        from repro.sim.process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> "Event":
        """Event that fires when every event in ``events`` has fired."""
        from repro.sim.events import AllOf

        return AllOf(self, list(events))

    # -- scheduling ------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._cur_urgent or self._cur_normal:
            return self._now
        when = self._heap[0][0] if self._heap else _INF
        return min(when, self._lane_next)

    def _open_deadlines(self, when: float) -> None:
        """Open timestamp ``when``, at which a lane deadline is due.

        Every heap and lane entry at ``when`` moves into the batch, in
        ``(priority, seq)`` order.  A deadline whose event already fired
        is dropped — popped, never dispatched, though the clock has
        moved to it — and a live one is staged as an :class:`_Expiry`.
        """
        heap = self._heap
        staged = []
        while heap and heap[0][0] == when:
            entry = heappop(heap)
            staged.append((entry[1], entry[2], entry[3]))
        head = _INF
        for lane in self._lanes.values():
            while lane and lane[0][0] == when:
                _, seq, park = lane.popleft()
                if park._value is _PENDING:
                    staged.append((1, seq, _Expiry(park)))
            if lane and lane[0][0] < head:
                head = lane[0][0]
        self._lane_next = head
        if staged:
            staged.sort()   # (priority, seq) pairs are unique
            for priority, _, event in staged:
                if priority == 1:
                    self._cur_normal.append(event)
                else:
                    self._cur_urgent.append(event)

    def _drain(self, stop=(), deadline: float = _INF) -> None:
        """The dispatch loop: consume batches until a bound is hit.

        Runs until the queue is empty, ``stop`` (a list filled by a
        sentinel callback) becomes non-empty, or the next timestamp
        would open past ``deadline``.  This is the single hot loop of
        the whole simulator — everything it needs is cached in locals
        and the per-event work is fully inlined.
        """
        heap = self._heap
        urgent = self._cur_urgent
        normal = self._cur_normal
        profile = self._profile
        pop_urgent = urgent.popleft
        pop_normal = normal.popleft
        while True:
            if urgent:
                event = pop_urgent()
            elif normal:
                event = pop_normal()
            else:
                # Open the next timestamp: the heap head, unless a lane
                # deadline is due first (or at the same time).
                when = heap[0][0] if heap else _INF
                if self._lane_next <= when:
                    when = self._lane_next
                    if when > deadline or when == _INF:
                        return
                    self._now = when
                    self._open_deadlines(when)
                    continue
                if when > deadline:
                    return
                self._now = when
                entry = heappop(heap)
                if heap and heap[0][0] == when:
                    # Timestamp collision: stage every entry at ``when``
                    # so (priority, seq) interleaving stays exact.
                    if entry[1] == 1:
                        normal.append(entry[3])
                    else:
                        urgent.append(entry[3])
                    while heap and heap[0][0] == when:
                        entry = heappop(heap)
                        if entry[1] == 1:
                            normal.append(entry[3])
                        else:
                            urgent.append(entry[3])
                    continue
                # Sole event at this timestamp: dispatch straight from
                # the heap without touching the batch deques.
                event = entry[3]
            if event._value is _PENDING:
                # A process (bootstrap, sleep or parked wake) or a
                # Timer: one direct call.
                if profile is None:
                    event._resume(event)
                else:
                    profile.dispatch(self._now, event, (event._resume,))
                if stop:
                    return
                continue
            callbacks = event.callbacks
            event.callbacks = None
            event._processed = True
            if profile is None:
                for callback in callbacks:
                    callback(event)
            else:
                profile.dispatch(self._now, event, callbacks)
            if not event._ok and not event._defused:
                raise event._value
            if stop:
                return

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        Returns the value of ``until`` when it is an event; otherwise
        ``None``.
        """
        if self._closed:
            raise SimulationError("run() on a closed environment")
        if until is None:
            self._drain()
            return None
        if isinstance(until, Event):
            sentinel = until
            if sentinel._processed:
                return sentinel.value
            if sentinel.callbacks is None:
                return sentinel.value
            done: list = []
            sentinel.callbacks.append(done.append)
            self._drain(stop=done)
            if not done:
                raise SimulationError(
                    "run(until=event): queue drained before event fired"
                )
            if sentinel._ok:
                return sentinel._value
            sentinel.defuse()
            raise sentinel._value
        # numeric deadline
        deadline = float(until)
        if deadline < self._now:
            raise SimTimeError(f"until={deadline} is in the past (now={self._now})")
        self._drain(deadline=deadline)
        self._now = deadline
        return None

    def close(self) -> None:
        """Finalize: shut down every unfinished process, drop the queue.

        Each process still alive (a daemon parked on a queue, a waiter
        that will never be woken) is unhooked from the event or the
        primitive it waits on and its generator closed, which runs its
        ``finally`` blocks; then the calendar is emptied.  Nothing is
        dispatched and the clock stays put.  Afterwards no kernel object
        links a simulated component back to itself, so what the caller
        drops is freed by reference counting instead of waiting for the
        cyclic collector.  A closed environment refuses to :meth:`run`.
        """
        self._closed = True
        while self._live:
            live, self._live = self._live, {}
            for proc in live:
                proc._close()
        self._heap.clear()
        self._cur_urgent.clear()
        self._cur_normal.clear()
        self._lanes.clear()
        self._lane_next = _INF

    def __repr__(self) -> str:
        queued = (len(self._heap)
                  + len(self._cur_urgent) + len(self._cur_normal)
                  + sum(map(len, self._lanes.values())))
        return f"<Environment now={self._now} queued={queued}>"
