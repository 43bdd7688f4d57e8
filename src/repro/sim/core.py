"""Environment and basic event types for the DES kernel.

Scheduling preserves the exact ``(time, priority, seq)`` FIFO contract
the simulator has always had — same-time, same-priority events fire in
insertion order, which makes repeated runs bit-identical — but the
implementation is a *bucketed calendar* tuned for the workload's
actual shape rather than a single binary heap:

* events scheduled **at the current time** (``delay == 0`` — roughly
  half of all events: ``succeed()``/``fail()`` calls, process
  bootstraps and completions) go straight into the current dispatch
  batch, a pair of deques (urgent/normal) drained FIFO.  They never
  touch the heap at all;
* **future** events fall back to a binary heap of
  ``(time, priority, seq, event)`` entries, exactly the historical
  structure;
* priorities other than ``PRIORITY_URGENT``/``PRIORITY_NORMAL`` are
  legal but rare, and ride a small per-batch overflow heap.

When virtual time advances, a timestamp holding a single heap entry —
the overwhelmingly common case — dispatches straight out of the heap;
a colliding timestamp drains all its heap entries into the batch
deques in one go.  Either way dispatch happens in the single tight
loop of :meth:`Environment._drain` with no per-event method-call
overhead.  Ordering is identical to the heap-only scheduler by
construction: heap entries at a timestamp always predate (lower
``seq``) anything appended to the batch while it runs, urgent arrivals
preempt queued normal events on every iteration, and the overflow heap
keeps ``(priority, seq)`` order for exotic priorities.
``tests/test_sim/test_scheduler_equiv.py`` holds the scheduler to that
equivalence property under randomized floods.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from repro.errors import SimTimeError, SimulationError

#: Priority for events that must fire before ordinary ones at the same time
#: (used internally for process initialization and interrupts).
PRIORITY_URGENT: int = 0
#: Default priority for ordinary events.
PRIORITY_NORMAL: int = 1

_PENDING = object()  # sentinel: event value not yet set

_INF = float("inf")


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
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

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
            env._push_rare(self, priority)
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
            env._push_rare(self, priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event.

        Useful as a callback: ``other.callbacks.append(this.trigger)``.
        """
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

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
    inlined (no ``super().__init__`` / ``_schedule`` hops): timeouts are
    the single most-allocated event type on the hot path.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimTimeError(f"negative timeout delay: {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self._defused = False
        self.delay = delay
        when = env._now + delay
        if when > env._now:
            seq = env._seq
            env._seq = seq + 1
            heappush(env._heap, (when, 1, seq, self))
        else:
            env._cur_normal.append(self)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class _Wake(Event):
    """A pooled kernel-internal wakeup event.

    Used only by :class:`~repro.sim.process.Process` for bootstraps and
    already-processed-target resumptions: nothing outside the kernel
    holds a reference once its outcome is read, so instances are
    recycled through :attr:`Environment._wake_pool` instead of being
    allocated per use.
    """

    __slots__ = ()


class Environment:
    """Execution environment: virtual clock plus calendar queue."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: Far-future events: a heap of ``(time, priority, seq, event)``.
        self._heap: list[tuple[float, int, int, Event]] = []
        #: Current-timestamp batch, drained FIFO.  Urgent events preempt
        #: queued normal ones; exotic priorities overflow into
        #: ``_cur_rare`` (a ``(priority, seq, event)`` heap).
        self._cur_urgent: deque[Event] = deque()
        self._cur_normal: deque[Event] = deque()
        self._cur_rare: list[tuple[int, int, Event]] = []
        self._seq = 0
        #: Recycled :class:`_Wake` instances (see ``sim.process``).
        self._wake_pool: list[Event] = []
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

    def any_of(self, events: Iterable[Event]) -> "Event":
        """Event that fires when at least one event in ``events`` has fired."""
        from repro.sim.events import AnyOf

        return AnyOf(self, list(events))

    # -- scheduling ------------------------------------------------------------

    def _push_rare(self, event: Event, priority: int) -> None:
        """Admit a current-time event with an exotic priority (>= 2)."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._cur_rare, (priority, seq, event))

    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimTimeError(f"cannot schedule in the past (delay={delay})")
        when = self._now + delay
        if when > self._now:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (when, priority, seq, event))
        elif priority == 1:
            self._cur_normal.append(event)
        elif priority == 0:
            self._cur_urgent.append(event)
        else:
            self._push_rare(event, priority)

    def _open_batch(self) -> None:
        """Advance to the next scheduled time and stage its events.

        Drains every heap entry at the new timestamp into the batch
        deques in ``(priority, seq)`` order.  Entries staged here always
        precede (by ``seq``) anything appended while the batch runs.
        """
        heap = self._heap
        when = heap[0][0]
        self._now = when
        urgent, normal = self._cur_urgent, self._cur_normal
        while heap and heap[0][0] == when:
            entry = heappop(heap)
            priority = entry[1]
            if priority == 1:
                normal.append(entry[3])
            elif priority == 0:
                urgent.append(entry[3])
            else:
                heappush(self._cur_rare, (priority, entry[2], entry[3]))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._cur_urgent or self._cur_normal or self._cur_rare:
            return self._now
        return self._heap[0][0] if self._heap else _INF

    def step(self) -> None:
        """Process exactly one event from the queue."""
        if not (self._cur_urgent or self._cur_normal or self._cur_rare):
            if not self._heap:
                raise SimulationError("step() on an empty event queue")
            self._open_batch()
        if self._cur_urgent:
            event = self._cur_urgent.popleft()
        elif self._cur_normal:
            event = self._cur_normal.popleft()
        else:
            event = heappop(self._cur_rare)[2]
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failure nobody waited on: surface it rather than losing it.
            raise event._value

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
        rare = self._cur_rare
        profile = self._profile
        pop_urgent = urgent.popleft
        pop_normal = normal.popleft
        while True:
            if urgent:
                event = pop_urgent()
            elif normal:
                event = pop_normal()
            elif rare:
                event = heappop(rare)[2]
            elif heap:
                when = heap[0][0]
                if when > deadline:
                    return
                self._now = when
                entry = heappop(heap)
                if heap and heap[0][0] == when:
                    # Timestamp collision: stage every entry at ``when``
                    # so (priority, seq) interleaving stays exact.
                    priority = entry[1]
                    if priority == 1:
                        normal.append(entry[3])
                    elif priority == 0:
                        urgent.append(entry[3])
                    else:
                        heappush(rare, (priority, entry[2], entry[3]))
                    while heap and heap[0][0] == when:
                        entry = heappop(heap)
                        priority = entry[1]
                        if priority == 1:
                            normal.append(entry[3])
                        elif priority == 0:
                            urgent.append(entry[3])
                        else:
                            heappush(rare, (priority, entry[2], entry[3]))
                    continue
                # Sole event at this timestamp: dispatch straight from
                # the heap without touching the batch deques.
                event = entry[3]
            else:
                return
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
        that will never be woken) is unhooked from the event it waits on
        and its generator closed, which runs its ``finally`` blocks; then
        the calendar and the wake pool are emptied.  Nothing is
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
        self._cur_rare.clear()
        self._wake_pool.clear()

    def __repr__(self) -> str:
        queued = (len(self._heap) + len(self._cur_rare)
                  + len(self._cur_urgent) + len(self._cur_normal))
        return f"<Environment now={self._now} queued={queued}>"
