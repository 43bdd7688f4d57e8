"""Composite events: wait for all of a set of events."""

from __future__ import annotations

from typing import Callable, Sequence

from repro.sim.core import Environment, Event


class Condition(Event):
    """Fires when ``evaluate(events, fired_count)`` becomes true.

    The value of a condition is a dict mapping each *fired* constituent
    event to its value, in firing order.  If any constituent fails, the
    condition fails with that exception.
    """

    __slots__ = ("_evaluate", "_events", "_fired")

    def __init__(
        self,
        env: Environment,
        evaluate: Callable[[Sequence[Event], int], bool],
        events: Sequence[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._fired: dict[Event, object] = {}
        for ev in self._events:
            if ev.env is not env:
                raise ValueError("all events must share one environment")
        if not self._events and evaluate(self._events, 0):
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
        if self._evaluate(self._events, len(self._fired)):
            self.succeed(dict(self._fired))


def _all_fired(evs: Sequence[Event], n: int) -> bool:
    return n == len(evs)


class AllOf(Condition):
    """Fires when every constituent event has fired successfully."""

    __slots__ = ()

    def __init__(self, env: Environment, events: Sequence[Event]):
        super().__init__(env, _all_fired, events)

