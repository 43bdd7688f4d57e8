"""Kernel instrumentation: per-event-type dispatch counts and timings.

The dispatch loop in :meth:`repro.sim.core.Environment._drain` costs
nothing when profiling is off (a single ``is None`` test per event).
When a :class:`KernelProfile` is attached, every dispatch is routed
through :meth:`KernelProfile.dispatch`, which runs the callbacks while
accumulating counts and wall-clock time per event type, plus a census of *where* each dispatch resumes (:func:`site_of`): the
event type says ``Process`` (a bootstrap, a sleep or a parked wake),
the site says which generator line slept or parked.
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

from time import perf_counter
from typing import Optional

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

    __slots__ = ("count", "callbacks", "seconds")

    def __init__(self) -> None:
        self.count = 0
        self.callbacks = 0
        self.seconds = 0.0


class KernelProfile:
    """Event counts and dispatch times, keyed by event type and by site."""

    __slots__ = ("stats", "sites", "events", "last_dispatch")

    def __init__(self) -> None:
        self.stats: dict[str, EventTypeStats] = {}
        #: Dispatch count per resume site (see :func:`site_of`).
        self.sites: dict[str, int] = {}
        self.events = 0
        #: Virtual time of the last dispatched event.
        self.last_dispatch: Optional[float] = None

    @classmethod
    def attach(cls, env) -> "KernelProfile":
        """Create a profile and hook it into ``env``'s dispatch loop."""
        profile = cls()
        env._profile = profile
        return profile

    def dispatch(self, now: float, event, callbacks) -> None:
        """Run ``callbacks`` for ``event``, recording count and elapsed time.

        Called from ``Environment._drain`` in place of the raw
        callback loop; must preserve its semantics exactly (callbacks run
        in order; exceptions propagate).
        """
        site = site_of(callbacks)
        self.sites[site] = self.sites.get(site, 0) + 1
        start = perf_counter()
        for callback in callbacks:
            callback(event)
        elapsed = perf_counter() - start

        self.last_dispatch = now
        self.events += 1

        key = type(event).__name__
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = EventTypeStats()
        stats.count += 1
        stats.callbacks += len(callbacks)
        stats.seconds += elapsed

    # -- reporting -----------------------------------------------------------

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
