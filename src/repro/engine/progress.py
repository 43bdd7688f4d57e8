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

from typing import Callable, Iterable

from repro.errors import EpochDeadlineError
from repro.sim.core import Environment
from repro.sim.sync import Notify, SimLock
from repro.units import us

#: Default fallback park time while waiting with no kick (guards against
#: a missing notification path ever deadlocking a wait).  Completion
#: queues kick the engine on every push, so this only bounds the rare
#: conditions with no notification hook; keeping it long keeps idle
#: waits cheap (one wakeup per 100 us instead of per 10 us).
#: Overridable per cluster via ``EngineConfig.idle_fallback``.
_IDLE_FALLBACK = us(100)

Poller = Callable[[], Iterable]  # generator function returning int


class ProgressEngine:
    """Polls all registered transports under a single lock."""

    def __init__(self, env: Environment, t_poll_miss: float,
                 idle_fallback: float = _IDLE_FALLBACK):
        if idle_fallback <= 0:
            raise ValueError(
                f"idle_fallback must be positive, got {idle_fallback}")
        self.env = env
        self.t_poll_miss = t_poll_miss
        self.idle_fallback = idle_fallback
        self.lock = SimLock(env)
        self._pollers: list[tuple[Poller, "Callable | None"]] = []
        self._notify = Notify(env)
        # statistics
        self.passes = 0
        self.events_handled = 0

    def register(self, poller: Poller, quick: "Callable | None" = None) -> None:
        """Add a transport poller (a generator function returning a count).

        ``quick``, if given, is a plain callable tried first on every
        pass: it returns an int to settle the pass without instantiating
        the generator (the no-pending-work fast path, including any idle
        side effects), or ``None`` to fall through to ``poller()``.  It
        must be event-free — a pass settled by ``quick`` yields nothing.
        """
        self._pollers.append((poller, quick))

    def kick(self) -> None:
        """Wake any process parked in :meth:`wait_until` (CQ push hook)."""
        self._notify.set()

    def watch_cq(self, cq) -> None:
        """Arrange for pushes on ``cq`` to kick this engine."""
        cq.on_push.append(lambda wc: self.kick())

    def progress_once(self):
        """One progress pass; yields, returns events handled (0 if lock busy).

        The non-blocking try-lock variant used from ``MPI_Parrived`` and
        ``MPI_Pready`` contexts.  A failed probe still costs the caller
        a poll's worth of CPU — and guarantees time advances, so a
        thread spin-polling ``Parrived`` against a busy engine cannot
        livelock the simulation.
        """
        if not self.lock.try_acquire():
            yield self.t_poll_miss
            return 0
        try:
            handled = 0
            for poller, quick in self._pollers:
                if quick is not None:
                    settled = quick()
                    if settled is not None:
                        handled += settled
                        continue
                handled += yield from poller()
            if handled == 0:
                yield self.t_poll_miss
            self.passes += 1
            self.events_handled += handled
            return handled
        finally:
            self.lock.release()

    def wait_until(self, predicate: Callable[[], bool],
                   deadline: "float | None" = None, describe: str = ""):
        """Progress until ``predicate()`` holds; yields (``MPI_Wait`` core).

        Idle stretches park on the kick latch rather than spinning.
        With a ``deadline`` (absolute virtual time), an epoch that is
        still incomplete at that time raises
        :class:`~repro.errors.EpochDeadlineError` instead of waiting
        forever — the chaos layer's bound on a hung edge.  ``describe``
        names the waited-on work in that error.
        """
        env = self.env
        lock = self.lock
        notify = self._notify
        pollers = self._pollers
        t_poll_miss = self.t_poll_miss
        while not predicate():
            if deadline is not None and env._now >= deadline:
                raise EpochDeadlineError(
                    f"epoch overran its deadline waiting for {describe or 'completion'}")
            # One progress pass, inlined from :meth:`progress_once` (this
            # loop is the single hottest generator in the engine; the
            # nested-generator hop per iteration is measurable).  The
            # yielded event sequence must stay identical to the method's.
            if not lock.try_acquire():
                yield t_poll_miss
                handled = 0
            else:
                try:
                    handled = 0
                    for poller, quick in pollers:
                        if quick is not None:
                            settled = quick()
                            if settled is not None:
                                handled += settled
                                continue
                        handled += yield from poller()
                    if handled == 0:
                        yield t_poll_miss
                    self.passes += 1
                    self.events_handled += handled
                finally:
                    lock.release()
            if predicate():
                break
            if handled == 0:
                if notify.pending:
                    # A completion landed since the last park — it may
                    # not have been polled yet (e.g. it arrived during
                    # this very pass).  Consume the trigger and re-poll
                    # rather than parking past real work.
                    notify.consume()
                    continue
                park = self.idle_fallback
                if deadline is not None:
                    park = min(park, max(deadline - env._now, 0.0))
                yield notify.wait(park)

    def __repr__(self) -> str:
        return (f"<ProgressEngine pollers={len(self._pollers)} "
                f"passes={self.passes}>")
