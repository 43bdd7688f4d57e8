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


class CompletionRouter:
    """Single registration point for CQ polling and WC dispatch.

    Keyed dispatch tables (``wr_id`` -> callback / failure-routing
    entry) are shared across every binding on the same router, matching
    verbs semantics where a ``wr_id`` namespace spans the CQs of one
    process.
    """

    def __init__(self, engine, host_config, batch: int = 16):
        if batch < 1:
            raise ValueError(f"poll batch must be >= 1, got {batch}")
        self.engine = engine
        self.env = engine.env
        self.host = host_config
        self.batch = batch
        #: wr_id -> callback fired with the WC on success (one-shot).
        self._on_success: dict[int, Any] = {}
        #: wr_id -> opaque failure-routing entry, removed on success.
        #: Entries live from post to ACK so a WR that dies — with an
        #: error CQE or with its QP — can be traced back to its message.
        self._on_failure: dict[int, Any] = {}
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
        batch = self.batch

        def poller():
            handled = 0
            while True:
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

        # An empty CQ settles a pass without instantiating the poller:
        # the engine tests the entry deque and runs only the idle hook,
        # which is all the generator's empty run would do.  Duck-typed
        # CQs (test doubles) without one always run the full poller.
        self.engine.register(poller, getattr(cq, "_entries", None), on_idle)
        self.engine.watch_cq(cq)
        self.bindings += 1

    # -- keyed dispatch -----------------------------------------------------

    def on_success(self, wr_id: int, callback) -> None:
        """Fire ``callback(wc)`` when ``wr_id`` completes successfully."""
        self._on_success[wr_id] = callback

    def on_failure(self, wr_id: int, entry) -> None:
        """Attach failure-routing state to an in-flight ``wr_id``."""
        self._on_failure[wr_id] = entry

    def pop_success(self, wr_id: int):
        """Consume the success callback for ``wr_id`` (None if absent)."""
        return self._on_success.pop(wr_id, None)

    def pop_failure(self, wr_id: int):
        """Consume the failure entry for ``wr_id`` (None if absent)."""
        return self._on_failure.pop(wr_id, None)

    def discard(self, wr_id: int):
        """Drop both routing entries for ``wr_id`` (completion landed);
        returns its success callback (None if absent)."""
        self._on_failure.pop(wr_id, None)
        return self._on_success.pop(wr_id, None)

    def sweep_failures(self, predicate) -> list:
        """Remove and return failure entries matching ``predicate``.

        Used by channel recovery to reclaim WRs that vanished with a
        killed QP (dropped in flight, no CQE): whatever is still
        registered against a reconnected lane died unacknowledged.
        Matching success callbacks are dropped alongside.
        """
        swept = []
        for wr_id, entry in list(self._on_failure.items()):
            if predicate(entry):
                del self._on_failure[wr_id]
                self._on_success.pop(wr_id, None)
                swept.append(entry)
        return swept

    def close(self) -> None:
        """Drop every routing entry (their callbacks hold the rank)."""
        self._on_success.clear()
        self._on_failure.clear()

    def __repr__(self) -> str:
        return (f"<CompletionRouter bindings={self.bindings} "
                f"inflight={len(self._on_failure)}>")
