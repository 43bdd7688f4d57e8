"""Completion routing: one CQ-polling loop shared by every transport.

Before the engine layer existed, each transport reimplemented the same
loop — poll a CQ in batches, charge ``t_poll_hit`` per completion,
dispatch, then run a completion check: the native module's send/recv
pollers, the baseline's p2p poller, and the channel pumps all carried
private copies.  :class:`CompletionRouter` is the single registration
point replacing them: a transport *binds* a CQ with a per-completion
handler (and an optional idle hook), and registers per-``wr_id``
success/failure callbacks for keyed dispatch.

The router registers exactly one poller per binding on the process's
:class:`~repro.engine.progress.ProgressEngine` and arranges for CQ
pushes to kick it, so binding order is progress order — the same
discipline the hand-written pollers followed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

WCHandler = Callable[..., Iterable]  # generator function of one WC

#: Completions drained per ``ibv_poll_cq`` call.
POLL_BATCH = 16


class CompletionRouter:
    """Single registration point for CQ polling and WC dispatch.

    Keyed dispatch tables (``wr_id`` -> callback / failure-routing
    entry) are shared across every binding on the same router, matching
    verbs semantics where a ``wr_id`` namespace spans the CQs of one
    process.
    """

    def __init__(self, engine, host_config):
        self.engine = engine
        self.env = engine.env
        self.host = host_config
        #: wr_id -> callback fired with the WC on success (one-shot).
        #: Posters and completion handlers use both tables directly.
        self.successes: dict[int, Any] = {}
        #: wr_id -> opaque failure-routing entry, removed on success.
        #: Entries live from post to ACK so a WR that dies — with an
        #: error CQE or with its QP — can be traced back to its message.
        self.failures: dict[int, Any] = {}
        # statistics
        self.bindings = 0
        self.completions_routed = 0

    # -- CQ bindings --------------------------------------------------------

    def bind(self, cq, on_wc: WCHandler,
             on_idle: Optional[Callable[[], None]] = None) -> None:
        """Poll ``cq`` on every progress pass, dispatching through ``on_wc``.

        ``on_wc(wc)`` is a generator invoked once per completion, after
        the per-completion poll cost (``t_poll_hit``) has been charged.
        ``on_idle()`` (plain callable) runs after each drained pass —
        the hook where transports check round-completion conditions.
        """
        t_poll_hit = self.host.t_poll_hit
        batch = POLL_BATCH
        entries = getattr(cq, "_entries", None)

        def poller():
            handled = 0
            while entries is None or entries:
                wcs = cq.poll(batch)
                if not wcs:
                    break
                for wc in wcs:
                    yield t_poll_hit
                    yield from on_wc(wc)
                    handled += 1
            self.completions_routed += handled
            if on_idle is not None:
                on_idle()
            return handled

        # An empty CQ settles a pass without instantiating the poller
        # (the engine tests the entry deque and runs only the idle hook),
        # and a drained one is not polled again.  Duck-typed CQs (test
        # doubles) without one always poll.
        self.engine.register(poller, entries, on_idle)
        self.engine.watch_cq(cq)
        self.bindings += 1

    # -- keyed dispatch -----------------------------------------------------

    def sweep_failures(self, predicate) -> list:
        """Remove and return failure entries matching ``predicate``.

        Used by channel recovery to reclaim WRs that vanished with a
        killed QP (dropped in flight, no CQE): whatever is still
        registered against a reconnected lane died unacknowledged.
        Matching success callbacks are dropped alongside.
        """
        swept = []
        for wr_id, entry in list(self.failures.items()):
            if predicate(entry):
                del self.failures[wr_id]
                self.successes.pop(wr_id, None)
                swept.append(entry)
        return swept

    def close(self) -> None:
        """Drop every routing entry (their callbacks hold the rank)."""
        self.successes.clear()
        self.failures.clear()

    def __repr__(self) -> str:
        return (f"<CompletionRouter bindings={self.bindings} "
                f"inflight={len(self.failures)}>")
