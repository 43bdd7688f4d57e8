"""The single-threaded progress engine (paper Section IV-A).

"Our progress engine design is single-threaded, we only allow a single
thread to progress at a time.  ``MPI_Parrived`` tries to acquire a
lock.  If it is successful, it will progress all MPI messages and
release the lock upon completion.  Otherwise it just returns."

The progress engine is the *driver* of the transport engine: pollers
(one per bound completion queue, registered through
:class:`~repro.engine.router.CompletionRouter`) are generator functions
that poll their CQs, charge CPU costs, and return the number of events
handled.  Waiting is event-driven across idle stretches: the engine
parks on a :class:`~repro.sim.sync.Notify` latch that completion-queue
pushes trigger, instead of burning a simulation event per spin — same
virtual-time semantics, thousands of times fewer events.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sized

from repro.sim.core import Environment
from repro.sim.sync import Notify
from repro.units import us

#: Fallback park time while waiting with no kick (guards against a
#: missing notification path ever deadlocking a wait).  Completion
#: queues kick the engine on every push, so this only bounds the rare
#: conditions with no notification hook; keeping it long keeps idle
#: waits cheap (one wakeup per 100 us instead of per 10 us).
IDLE_FALLBACK = us(100)

Poller = Callable[[], Iterable]  # generator function returning int


class ProgressEngine:
    """Polls all registered transports under a single lock."""

    def __init__(self, env: Environment, t_poll_miss: float):
        self.env = env
        self.t_poll_miss = t_poll_miss
        #: The progress lock.  A flag, not a :class:`SimLock`: it is only
        #: ever tried (a busy engine is never waited on), so there is no
        #: queue to keep.
        self._busy = False
        self._pollers: list[tuple[Poller, Sized | None,
                                  Callable[[], None] | None]] = []
        self._notify = Notify(env)

    def register(self, poller: Poller, pending: Sized | None = None,
                 on_idle: Callable[[], None] | None = None) -> None:
        """Add a transport poller (a generator function returning a count).

        ``pending``, if given, is the container of the poller's work (a
        completion queue's entries), tested on every pass: while it is
        empty the pass skips the poller without instantiating the
        generator and calls ``on_idle()`` instead (the hook the poller
        runs after draining), which must be event-free.  Without it the
        poller runs on every pass.
        """
        self._pollers.append((poller, pending, on_idle))

    def kick(self) -> None:
        """Wake any process parked in :meth:`wait_until` (CQ push hook)."""
        self._notify.set()

    def watch_cq(self, cq) -> None:
        """Arrange for pushes on ``cq`` to kick this engine.

        The latch's ``set`` is bound directly: a push is one call, not a
        trip through :meth:`kick`.
        """
        cq.on_push.append(self._notify.set)

    def progress_once(self):
        """One progress pass; yields, returns events handled (0 if lock busy).

        The non-blocking try-lock variant used from ``MPI_Parrived`` and
        ``MPI_Pready`` contexts.  A failed probe still costs the caller
        a poll's worth of CPU — and guarantees time advances, so a
        thread spin-polling ``Parrived`` against a busy engine cannot
        livelock the simulation.
        """
        if self._busy:
            yield self.t_poll_miss
            return 0
        self._busy = True
        try:
            handled = 0
            for poller, pending, on_idle in self._pollers:
                if pending is not None and not pending:
                    if on_idle is not None:
                        on_idle()
                    continue
                handled += yield from poller()
            if handled == 0:
                yield self.t_poll_miss
            return handled
        finally:
            self._busy = False

    def wait_until(self, predicate: Callable[[], bool]):
        """Progress until ``predicate()`` holds; yields (``MPI_Wait`` core).

        Idle stretches park on the kick latch rather than spinning.
        """
        notify = self._notify
        pollers = self._pollers
        t_poll_miss = self.t_poll_miss
        # The predicate is re-tested only where it can have changed:
        # after a pass and after a park, never twice with no yield between.
        if predicate():
            return
        while True:
            # One progress pass, inlined from :meth:`progress_once` (this
            # loop is the single hottest generator in the engine; the
            # nested-generator hop per iteration is measurable).  The
            # yielded event sequence must stay identical to the method's.
            if self._busy:
                yield t_poll_miss
                handled = 0
            else:
                self._busy = True
                try:
                    handled = 0
                    for poller, pending, on_idle in pollers:
                        if pending is not None and not pending:
                            if on_idle is not None:
                                on_idle()
                            continue
                        handled += yield from poller()
                    if handled == 0:
                        yield t_poll_miss
                finally:
                    self._busy = False
            if predicate():
                return
            if handled == 0:
                if notify.pending:
                    # A completion landed since the last park — it may
                    # not have been polled yet (e.g. it arrived during
                    # this very pass).  Consume the trigger and re-poll
                    # rather than parking past real work.
                    notify.consume()
                    continue
                yield notify.wait(IDLE_FALLBACK)
                if predicate():
                    return

    def close(self) -> None:
        """Drop the pollers: they hold their transports, which hold this
        engine."""
        self._pollers.clear()

    def __repr__(self) -> str:
        return f"<ProgressEngine pollers={len(self._pollers)}>"
