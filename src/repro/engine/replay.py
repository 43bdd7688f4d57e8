"""Exactly-once replay after channel failure, shared by every transport.

PR 1 grew three separate recovery paths: the native module's
``_recover`` loop, the channel's ``reconnect`` walk, and the persist
module's read-rail re-issue.  All three follow the same protocol —

1. back off for the reconnect delay (the out-of-band error handshake;
   far longer than the ACK window, so every in-flight completion has
   landed before any bookkeeping is trusted),
2. walk failed QP pairs back to RTS (:func:`reconnect_walk`),
3. restock receive queues,
4. sweep work that vanished with a killed QP (dropped in flight, no
   CQE) into the replay queue,
5. drain the queue exactly once, counting each replay,

— and :class:`ReplayTracker` now owns that protocol, parameterized by
transport-specific hooks.  A WR is replayed iff it never completed:
tracked WRs leave the in-flight map on completion (success or error
CQE), and the sweep only reclaims what is still registered against a
reconnected QP.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.ib.constants import QPState


def reconnect_walk(pairs: Iterable[tuple],
                   on_fixed: Optional[Callable] = None) -> set:
    """Reconnect every QP pair with a dead end; returns the fixed tokens.

    ``pairs`` yields ``(token, local, remote)`` triples; a pair is
    reconnected (RESET -> INIT -> RTR -> RTS, both ends) when either
    end is in ERROR.  ``on_fixed(token, local, remote)`` runs after
    each reconnect — the hook where channels restock the remote RQ.
    The walk is yield-free, so callers' no-interleaving guarantees
    (sweep-then-resubmit atomicity) hold across it.
    """
    from repro.ib import verbs

    fixed = set()
    for token, local, remote in pairs:
        if (local.state is QPState.ERROR
                or (remote is not None and remote.state is QPState.ERROR)):
            verbs.reconnect_qps(local, remote)
            fixed.add(token)
            if on_fixed is not None:
                on_fixed(token, local, remote)
    return fixed


class ReplayTracker:
    """WR bookkeeping plus the generic reconnect/replay loop.

    Transports configure the loop through :meth:`bind`:

    * ``recover_walk()`` — reconnect dead QP pairs, return the set of
      fixed tokens (usually via :func:`reconnect_walk`);
    * ``restock()`` — re-arm receive queues after the walk;
    * ``on_dropped(payload)`` — undo a vanished WR's accounting and
      return the replayable units it carried;
    * ``can_replay(unit)`` — whether the unit's path is back at RTS
      (``False`` breaks the drain for another reconnect lap);
    * ``replay_unit(unit)`` — generator re-issuing one unit.
    """

    def __init__(self, env, fabric, reconnect_delay: float,
                 counter: str = "mpi.replayed_wrs"):
        self.env = env
        self.fabric = fabric
        self.reconnect_delay = reconnect_delay
        self.counter = counter
        #: wr_id -> (token, payload) for every in-flight tracked WR.
        self._inflight: dict[int, tuple] = {}
        #: Units awaiting replay, drained in FIFO order.
        self.replay: list = []
        #: True while the recovery process is running (one per burst).
        self.recovering = False
        self._recover_walk = None
        self._restock = None
        self._on_dropped = None
        self._can_replay = None
        self._replay_unit = None
        #: When set (by the degradation ladder's mid-round takeover),
        #: units queued for replay are handed to this callable instead
        #: of the replay list — they will travel a rescue path, so the
        #: recovery loop must not re-issue them on the dead one.
        self.divert: Optional[Callable] = None

    def bind(self, *, recover_walk, restock, on_dropped, can_replay,
             replay_unit) -> None:
        """Install the transport-specific recovery hooks."""
        self._recover_walk = recover_walk
        self._restock = restock
        self._on_dropped = on_dropped
        self._can_replay = can_replay
        self._replay_unit = replay_unit

    # -- policy ------------------------------------------------------------

    @property
    def recovery_enabled(self) -> bool:
        """Whether failures route to recovery instead of raising."""
        faults = self.fabric.faults
        return faults is not None and faults.schedule.allow_reconnect

    # -- in-flight bookkeeping ---------------------------------------------

    def track(self, wr_id: int, token, payload) -> None:
        """Register an in-flight WR: ``token`` names its path (swept
        when that path is reconnected), ``payload`` its replay state."""
        self._inflight[wr_id] = (token, payload)

    def complete(self, wr_id: int):
        """A WR completed successfully; returns its entry (or None)."""
        return self._inflight.pop(wr_id, None)

    def fail(self, wr_id: int):
        """A WR died with an error CQE; returns its entry (or None)."""
        return self._inflight.pop(wr_id, None)

    def queue(self, units: Iterable) -> None:
        """Append units to the replay queue (exactly-once: callers move
        each unit here at most once, on CQE error or vanish-sweep).

        With a :attr:`divert` hook installed the units go there instead
        — same at-most-once discipline, different (rescue) transport.
        """
        if self.divert is not None:
            self.divert(list(units))
        else:
            self.replay.extend(units)

    # -- the recovery loop -------------------------------------------------

    def kick(self) -> None:
        """Start the recovery process, once per fault burst."""
        if not self.recovering:
            self.recovering = True
            self.env.process(self._recover())

    def _recover(self):
        counters = self.fabric.counters
        while True:
            yield self.reconnect_delay
            fixed = self._recover_walk()
            self._restock()
            for wr_id in [w for w, (tok, _) in self._inflight.items()
                          if tok in fixed]:
                _, payload = self._inflight.pop(wr_id)
                self.queue(self._on_dropped(payload))
            while self.replay:
                unit = self.replay[0]
                if not self._can_replay(unit):
                    break  # died again; take another reconnect lap
                counters[self.counter] += 1
                yield from self._replay_unit(unit)
                self.replay.pop(0)
            if not self.replay:
                break
        self.recovering = False

    def __repr__(self) -> str:
        return (f"<ReplayTracker inflight={len(self._inflight)} "
                f"replay={len(self.replay)} recovering={self.recovering}>")
