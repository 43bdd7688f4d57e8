"""Composite events: wait for all of a set of events."""

from __future__ import annotations

from typing import Sequence

from repro.sim.core import Environment, Event


class AllOf(Event):
    """Fires when every constituent event has fired successfully.

    The value is a dict mapping each constituent event to its value, in
    firing order.  If any constituent fails, this event fails with that
    exception.
    """

    __slots__ = ("_events", "_fired")

    def __init__(self, env: Environment, events: Sequence[Event]):
        super().__init__(env)
        self._events = list(events)
        self._fired: dict[Event, object] = {}
        for ev in self._events:
            if ev.env is not env:
                raise ValueError("all events must share one environment")
        if not self._events:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:
                # Already processed — account for it immediately.
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._fired[event] = event._value
        if len(self._fired) == len(self._events):
            self.succeed(dict(self._fired))
