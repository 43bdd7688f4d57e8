"""Simulated processes: generators driven by the event loop."""

from __future__ import annotations

from heapq import heappush
from typing import Generator

from repro.errors import ProcessError
from repro.errors import SimTimeError
from repro.sim.core import (
    PARKED, Environment, Event, PRIORITY_URGENT, _INF, _PENDING, _Wake)


class Process(Event):
    """A running simulated activity.

    Wraps a generator.  Each value the generator yields must be an
    :class:`Event`, a bare finite non-negative number or
    :data:`~repro.sim.core.PARKED`; the process sleeps until that event
    fires (a number ``d`` sleeps for ``d`` seconds, exactly like
    ``yield env.timeout(d)`` but with no event; ``PARKED`` until the
    primitive that returned it wakes the process), then resumes with the
    event's value (or has the event's exception thrown into it; ``None``
    after a sleep or a park).  A :class:`Process` is itself an event
    that fires when the generator returns (value = return value) or
    raises (failure).
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "name")

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
        #: The event or parking primitive this process is waiting on
        #: (None if ready or sleeping: a sleep is the process itself on
        #: the calendar).
        self._target = None
        self.name = name or getattr(generator, "__name__", "process")
        env._live[self] = None
        # Kick off at the current time, ahead of normal events: the
        # process is its own urgent bootstrap entry.
        env._cur_urgent.append(self)

    # -- internal -------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome.

        ``event`` is the process itself at its bootstrap, when a sleep
        ends and when a primitive wakes it from a park: the calendar
        holds the process as its own wake and dispatches it with this
        one call, and it resumes with ``None``.
        """
        self._target = None
        env = self.env
        # Restored, not cleared, on the way out: ``Store.hand_off`` resumes
        # a consumer in place, inside the producer's own step.
        outer = env.active_process
        env.active_process = self
        if event is self:
            ok = True
            value = None
        else:
            ok = event._ok
            value = event._value
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
            self.fail(exc, priority=PRIORITY_URGENT)
            return
        env.active_process = outer
        if result is PARKED:
            # Parked on a primitive, which queued this process and
            # recorded itself as ``_target``: off the calendar until the
            # primitive appends the process to a batch.
            return
        cls = type(result)
        if cls is float or cls is int:
            # Sleep protocol: a bare number is a pure delay with no
            # user-visible Timeout object.  The process goes on the
            # calendar as itself, exactly where ``yield env.timeout(result)``
            # would have put its Timeout — same (time, priority, seq) — and
            # ``_drain`` resumes it directly, so a sleep allocates nothing
            # but its heap entry.
            now = env._now
            when = now + result
            if when > now:
                if when == _INF:
                    raise SimTimeError(f"sleep delay not finite: {result}")
                seq = env._seq
                env._seq = seq + 1
                heappush(env._heap, (when, 1, seq, self))
            elif result >= 0:
                env._cur_normal.append(self)
            else:
                raise SimTimeError(f"sleep delay not >= 0: {result}")
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
        # Already processed: resume at the current time, ahead of normal
        # events, with its outcome.
        wake = _Wake(env)
        wake.callbacks.append(self._resume)
        wake._ok = result._ok
        wake._value = result._value
        wake._defused = not result._ok
        self._target = wake
        env._cur_urgent.append(wake)

    def _close(self) -> None:
        """Shut down an unfinished process (:meth:`Environment.close`).

        Unhooks it from the event or primitive it waits on and from
        whoever waits on it, then closes the generator.  The process
        never finishes as an event.
        """
        target = self._target
        if target is not None:
            target._unpark(self)
        self._target = None
        self.callbacks.clear()
        self._generator.close()

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
