"""Simulated processes: generators driven by the event loop."""

from __future__ import annotations

from heapq import heappush
from typing import Generator, Optional

from repro.errors import ProcessError
from repro.errors import SimTimeError
from repro.sim.core import Environment, Event, PRIORITY_URGENT, _PENDING, _Wake


class Process(Event):
    """A running simulated activity.

    Wraps a generator.  Each value the generator yields must be an
    :class:`Event` or a bare non-negative number; the process sleeps
    until that event fires (a number ``d`` sleeps for ``d`` seconds,
    exactly like ``yield env.timeout(d)`` but allocation-free), then
    resumes with the event's value (or has the event's exception thrown
    into it).  A :class:`Process` is itself an event that fires when the
    generator returns (value = return value) or raises (failure).
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "name",
                 "_sleep", "_sleep_callbacks")

    def __init__(self, env: Environment, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise ProcessError(f"process body must be a generator, got {generator!r}")
        # Event.__init__, inlined (one process per worker thread per round).
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self._defused = False
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process is currently waiting on (None if ready).
        self._target: Optional[Event] = None
        #: This process's own sleep wake and the one-callback list it is
        #: re-armed with for every bare-number sleep (a process sleeps on
        #: at most one at a time); both made at the first sleep.
        self._sleep: Optional[_Wake] = None
        self._sleep_callbacks: Optional[list] = None
        self.name = name or getattr(generator, "__name__", "process")
        env._live[self] = None
        # Kick off at the current time, ahead of normal events.  Bootstrap
        # wakeups are kernel-internal and recycled through the wake pool.
        pool = env._wake_pool
        if pool:
            bootstrap = pool.pop()
            bootstrap._ok = True
            bootstrap._value = None
            bootstrap._processed = False
            bootstrap._defused = False
            bootstrap.callbacks = [self._resume]
        else:
            bootstrap = _Wake(env)
            bootstrap._ok = True
            bootstrap._value = None
            bootstrap.callbacks.append(self._resume)
        env._cur_urgent.append(bootstrap)

    # -- internal -------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self._target = None
        env = self.env
        # Restored, not cleared, on the way out: ``Store.hand_off`` resumes
        # a consumer in place, inside the producer's own step.
        outer = env.active_process
        env.active_process = self
        ok = event._ok
        value = event._value
        if type(event) is _Wake and event is not self._sleep:
            # Kernel-internal wakeup: nothing else holds a reference once
            # its outcome is read, so recycle it.
            env._wake_pool.append(event)
        try:
            if ok:
                result = self._send(value)
            else:
                # Mark handled: the generator is being given the exception.
                event._defused = True
                result = self._throw(value)
        except StopIteration as stop:
            env.active_process = outer
            del env._live[self]
            # Drop the self-reference (list -> bound method -> process) so
            # a finished process is freed by refcount, not left to the GC.
            self._sleep_callbacks = None
            if self.callbacks:
                self.succeed(stop.value, priority=PRIORITY_URGENT)
            else:
                # Nobody waits on this process: finish in place.  The
                # completion event would dispatch to no one, and a later
                # ``yield process`` takes the already-processed path.
                # (Failures below are always scheduled, so one nobody
                # waited on still aborts the run.)
                self._ok = True
                self._value = stop.value
                self._processed = True
                self.callbacks = None
            return
        except BaseException as exc:
            env.active_process = outer
            del env._live[self]
            self._sleep_callbacks = None
            self.fail(exc, priority=PRIORITY_URGENT)
            return
        env.active_process = outer
        cls = type(result)
        if cls is float or cls is int:
            # Sleep protocol: a bare non-negative number yields a pure
            # delay with no user-visible Timeout object.  Scheduling is
            # exactly a ``yield env.timeout(result)`` — same position in
            # the (time, priority, seq) order — but the parked event is
            # a recycled kernel wake, so the hot sleep path allocates
            # nothing.
            if result < 0.0:
                raise SimTimeError(f"negative sleep delay: {result}")
            wake = self._sleep
            if wake is None:
                wake = self._sleep = _Wake(env)
                wake._ok = True
                wake._value = None
                self._sleep_callbacks = [self._resume]
            else:
                wake._processed = False
            wake.callbacks = self._sleep_callbacks
            now = env._now
            when = now + result
            if when > now:
                seq = env._seq
                env._seq = seq + 1
                heappush(env._heap, (when, 1, seq, wake))
            else:
                env._cur_normal.append(wake)
            self._target = wake
            return
        if isinstance(result, Event):
            if result.callbacks is not None:
                # The common case: park on a live event.
                self._target = result
                result.callbacks.append(self._resume)
                return
        else:
            error = ProcessError(
                f"process {self.name!r} yielded non-event {result!r}"
            )
            try:
                self._throw(error)
            except BaseException as exc:
                del env._live[self]
                self.fail(exc, priority=PRIORITY_URGENT)
                return
            raise error
        # Already processed: resume immediately at the current time.
        pool = env._wake_pool
        if pool:
            wake = pool.pop()
            wake._processed = False
            wake.callbacks = [self._resume]
        else:
            wake = _Wake(env)
            wake.callbacks.append(self._resume)
        wake._ok = result._ok
        wake._value = result._value
        wake._defused = not result._ok
        self._target = wake
        env._cur_urgent.append(wake)

    def _close(self) -> None:
        """Shut down an unfinished process (:meth:`Environment.close`).

        Unhooks it from its target and from whoever waits on it, then
        closes the generator.  The process never finishes as an event.
        """
        target = self._target
        if target is not None and target.callbacks:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = self._sleep = self._sleep_callbacks = None
        self.callbacks.clear()
        self._generator.close()

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
