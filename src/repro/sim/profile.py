"""Kernel instrumentation: per-event-type dispatch counts and timings.

The dispatch loop in :meth:`repro.sim.core.Environment._drain` costs
nothing when profiling is off (a single ``is None`` test per event).
When a :class:`KernelProfile` is attached, every dispatch is routed
through :meth:`KernelProfile.dispatch`, which runs the callbacks while
accumulating wall-clock time and a histogram bucketed by event type,
plus a census of *where* each dispatch resumes (:func:`site_of`): the
event type says ``_Wake``, the site says which generator line slept.
The site is read off the event at dispatch time, so nothing is added
where events are scheduled.

Usage::

    env = Environment()
    prof = KernelProfile.attach(env)
    ... run the simulation ...
    print(prof.report())
    print(prof.report(by="site"))

The ``repro-bench bench run --profile-cpu`` flag layers a cProfile
capture of the whole experiment on top of this (see ``repro.cli``);
this module covers the virtual-time view, cProfile the CPU view.
"""

from __future__ import annotations

import time
from typing import Optional

#: Histogram bucket edges for per-dispatch wall time (seconds).
_BUCKETS = (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, float("inf"))


#: Census key of an event dispatched with an empty callback list.
NO_CALLBACKS = "(no callbacks)"


def site_of(callbacks) -> str:
    """Where a dispatch lands: the census key of its first callback.

    A process resume is named by the innermost suspended generator
    frame (following ``yield from`` delegation) as
    ``qualname:lineno`` — the line that parked; any other callback by
    its ``__qualname__``; an event nobody observes is
    :data:`NO_CALLBACKS`.  Must be called *before* the callbacks run,
    while the generator is still suspended at the line that yielded.
    """
    if not callbacks:
        return NO_CALLBACKS
    callback = callbacks[0]
    generator = getattr(getattr(callback, "__self__", None), "_generator", None)
    if generator is None:
        return getattr(callback, "__qualname__", type(callback).__name__)
    while True:
        inner = getattr(generator, "gi_yieldfrom", None)
        if inner is None or not hasattr(inner, "gi_frame"):
            break
        generator = inner
    frame = generator.gi_frame
    code = generator.gi_code
    name = getattr(code, "co_qualname", code.co_name)
    # A process that has not started yet has a frame at its def line.
    return f"{name}:{frame.f_lineno if frame is not None else 0}"


class EventTypeStats:
    """Accumulated dispatch statistics for one event type."""

    __slots__ = ("count", "callbacks", "seconds", "hist")

    def __init__(self) -> None:
        self.count = 0
        self.callbacks = 0
        self.seconds = 0.0
        self.hist = [0] * len(_BUCKETS)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "callbacks": self.callbacks,
            "seconds": self.seconds,
            "hist": {f"<{edge:g}s": n for edge, n in zip(_BUCKETS, self.hist)},
        }


class KernelProfile:
    """Event-count / dispatch-time histograms, keyed by event type."""

    __slots__ = ("stats", "sites", "events", "first_dispatch",
                 "last_dispatch", "_clock")

    def __init__(self, clock=time.perf_counter) -> None:
        self.stats: dict[str, EventTypeStats] = {}
        #: Dispatch count per resume site (see :func:`site_of`).
        self.sites: dict[str, int] = {}
        self.events = 0
        self.first_dispatch: Optional[float] = None
        self.last_dispatch: Optional[float] = None
        self._clock = clock

    @classmethod
    def attach(cls, env) -> "KernelProfile":
        """Create a profile and hook it into ``env``'s dispatch loop."""
        profile = cls()
        env._profile = profile
        return profile

    @staticmethod
    def detach(env) -> None:
        env._profile = None

    def dispatch(self, now: float, event, callbacks) -> None:
        """Run ``callbacks`` for ``event``, recording count and elapsed time.

        Called from ``Environment._drain``/``step`` in place of the raw
        callback loop; must preserve its semantics exactly (callbacks run
        in order; exceptions propagate).
        """
        site = site_of(callbacks)
        self.sites[site] = self.sites.get(site, 0) + 1
        clock = self._clock
        start = clock()
        for callback in callbacks:
            callback(event)
        elapsed = clock() - start

        if self.first_dispatch is None:
            self.first_dispatch = now
        self.last_dispatch = now
        self.events += 1

        key = type(event).__name__
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = EventTypeStats()
        stats.count += 1
        stats.callbacks += len(callbacks)
        stats.seconds += elapsed
        for i, edge in enumerate(_BUCKETS):
            if elapsed < edge:
                stats.hist[i] += 1
                break

    # -- reporting -----------------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "events": self.events,
            "virtual_span": (
                None if self.first_dispatch is None
                else self.last_dispatch - self.first_dispatch
            ),
            "by_type": {k: v.as_dict() for k, v in sorted(self.stats.items())},
            "by_site": dict(sorted(self.sites.items())),
        }

    def report(self, by: str = "type") -> str:
        """Human-readable table.

        ``by="type"``: one row per event class, most dispatch-time-
        expensive first.  ``by="site"``: one row per resume site
        (:func:`site_of`), most-dispatched first — the event census by
        origin.
        """
        if by == "site":
            lines = [f"{'count':>10}  resume site"]
            for site, count in sorted(self.sites.items(),
                                      key=lambda kv: (-kv[1], kv[0])):
                lines.append(f"{count:>10}  {site}")
            lines.append(f"{self.events:>10}  total")
            return "\n".join(lines)
        if by != "type":
            raise ValueError(f"report(by=...) takes 'type' or 'site', got {by!r}")
        lines = [f"{'event type':<20} {'count':>10} {'cbs':>10} {'seconds':>10}"]
        by_cost = sorted(self.stats.items(),
                         key=lambda kv: kv[1].seconds, reverse=True)
        for key, stats in by_cost:
            lines.append(
                f"{key:<20} {stats.count:>10} {stats.callbacks:>10}"
                f" {stats.seconds:>10.4f}"
            )
        lines.append(f"{'total':<20} {self.events:>10}")
        return "\n".join(lines)
