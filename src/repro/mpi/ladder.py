"""The per-edge graceful-degradation ladder (chaos tentpole).

A :class:`LadderModule` wraps an ordered list of transport rungs —
typically ``native_verbs`` → ``part_persist`` → ``channels`` — behind
the one-module-per-matched-pair interface, and moves the edge *down*
the list when its current transport keeps failing and back *up* after
a probation of clean rounds:

* every rung-level failure event (send-WR retry exhaustion, read-rail
  replay) feeds a per-edge
  :class:`~repro.engine.watchdog.CircuitBreaker`;
  :data:`BREAKER_FAILURES` consecutive events trip it and schedule a
  **demotion** one rung down at the next round boundary;
* a tripped *native* rung additionally gets a **mid-round takeover**:
  the rung's :class:`~repro.engine.replay.ReplayTracker` diverts every
  replay-bound unit to a per-partition rescue path over the shared p2p
  channel (the one transport that needs no dedicated QPs), so the
  in-flight round still completes instead of hammering a dead path;
* on a fallback rung the breaker runs HALF_OPEN:
  :data:`BREAKER_PROBATION` consecutive clean rounds re-close it, which
  schedules a **promotion** one rung up — a still-dead path fails
  probation and drops right back, so a permanently dead edge settles
  at the highest rung that works.

Rung swaps happen only at round boundaries (both sides' ``MPI_Start``
funnel through :meth:`LadderModule._sync_ladder`).  The two sides
reach a boundary at different times, so the retired rung is not torn
down: it keeps serving the round it still owns (``retired_after``),
and its completion hooks go inert only once each request advances
past that round — its CQs stay bound to the completion router, which
has no unbind, but the retired checks no-op.

Everything is visible: ``chaos.*`` counters for every transition,
``transitions`` for the full state-machine history, and ``level``
(``rungs[level]`` is the active rung's spec).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.engine import CircuitBreaker
from repro.ib.constants import QPState
from repro.ib.wr import SGE
from repro.mpi.endpoint import Header, MsgKind, _PumpItem, make_seq
from repro.mpi.modules import ModuleSpec, PartitionedModule

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess

#: Consecutive failure events on an edge that trip its breaker.
BREAKER_FAILURES = 3
#: Clean rounds an edge completes on a fallback rung before the ladder
#: probes a promotion back toward the preferred transport.
BREAKER_PROBATION = 4


class LadderModule(PartitionedModule):
    """Degradation-ladder wrapper around a stack of transport rungs."""

    def __init__(self, cluster, send_req, recv_req, rungs):
        super().__init__(cluster, send_req, recv_req)
        self.rungs = list(rungs)
        self.sender: "MPIProcess" = send_req.process
        self.receiver: "MPIProcess" = recv_req.process
        self.breaker = CircuitBreaker(BREAKER_FAILURES, BREAKER_PROBATION)
        #: Current rung index (0 = preferred transport).
        self.level = 0
        #: The active rung's module instance.
        self.inner = None
        #: Full transition history (dicts; see ``_switch``).
        self.transitions: list[dict] = []
        self._pending_level: Optional[int] = None
        self._synced_round: Optional[int] = None
        self._fault_this_round = False
        #: Partitions travelling the rescue path right now; non-empty
        #: blocks the inner rung's send-side round completion.
        self._rescue_pending: set[int] = set()
        self._takeover_gen = 0
        self._rescue_channel = None
        self._rescue_send_mr = None
        self._rescue_recv_mr = None

    # -- delegation ----------------------------------------------------

    def __getattr__(self, name):
        # Unknown attributes resolve against the active rung, so
        # diagnostics-driven callers (bench stats, edge summaries) see
        # the wrapped module's counters transparently.
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    @property
    def blocks_completion(self) -> bool:
        """True while rescued partitions are still in flight."""
        return bool(self._rescue_pending)

    # -- setup ---------------------------------------------------------

    def setup(self, send_req, recv_req) -> None:
        # Rescue resources first: the shared p2p channel and buffer MRs
        # exist before any rung can fail, whatever rung 0 is.
        self._rescue_channel = self.sender.channel_to(self.receiver.rank)
        self._rescue_send_mr = self.sender._register(send_req.buf)
        self._rescue_recv_mr = self.receiver._register(
            recv_req.buf, remote_write=True)
        self.inner = self._create(0)

    def _create(self, level: int):
        """Instantiate and set up the rung at ``level``."""
        module = self.rungs[level].create(
            self.cluster, self.send_req, self.recv_req)
        module.ladder = self
        module.setup(self.send_req, self.recv_req)
        return module

    # -- round lifecycle -----------------------------------------------

    def _sync_ladder(self, round_no: int) -> None:
        """Round-boundary bookkeeping (idempotent per round).

        Feeds the breaker a clean round and applies any pending rung
        switch.  Whichever side's ``MPI_Start`` runs first does the work.
        """
        if round_no == self._synced_round:
            return
        if self._synced_round is not None:
            if not self._fault_this_round:
                closed = self.breaker.record_success()
                if (closed and self.level > 0
                        and self._pending_level is None):
                    # Probation passed: probe one rung up.
                    self._pending_level = self.level - 1
        if (self._pending_level is not None
                and self._pending_level != self.level):
            self._switch(self._pending_level, round_no)
        self._pending_level = None
        self._fault_this_round = False
        self._synced_round = round_no

    def start_send(self, req):
        self._sync_ladder(req.round)
        yield from self.inner.start_send(req)

    def start_recv(self, req):
        self._sync_ladder(req.round)
        yield from self.inner.start_recv(req)

    def pready(self, req, partition: int):
        yield from self.inner.pready(req, partition)

    # -- failure accounting --------------------------------------------

    def note_failure(self, kind: str, module=None) -> None:
        """A rung-level failure event (called by the inner module).

        Events from a retired rung (still draining its last round
        after a swap) are counted but do not feed the breaker — they
        describe the rung we already walked away from, and must not
        poison the new rung's probation.
        """
        counters = self.cluster.fabric.counters
        counters.inc("chaos.edge_failures")
        if module is not None and module is not self.inner:
            return
        self._fault_this_round = True
        if self.breaker.record_failure():
            counters.inc("chaos.breaker_trips")
            if self.level + 1 < len(self.rungs):
                self._pending_level = self.level + 1
                self._begin_takeover()

    def _switch(self, new_level: int, round_no: int) -> None:
        counters = self.cluster.fabric.counters
        demotion = new_level > self.level
        counters.inc("chaos.ladder_demotions" if demotion
                     else "chaos.ladder_promotions")
        self.transitions.append({
            "time": self.env.now,
            "round": round_no,
            "from": self.rungs[self.level].name,
            "to": self.rungs[new_level].name,
            "level": new_level,
            "kind": "demote" if demotion else "promote",
        })
        # Retire the old rung.  The two sides reach the boundary at
        # different times, so the old rung may still be completing the
        # round before this one — it keeps serving rounds up to
        # ``round_no - 1`` and goes inert (its completion hooks no-op,
        # the router has no unbind) once each request advances past.
        old = self.inner
        old.retired_after = round_no - 1
        self.level = new_level
        self.inner = self._create(new_level)
        if new_level > 0:
            # A lower rung: clean rounds now count toward promotion.
            self.breaker.begin_probation()
        else:
            self.breaker.reset()

    # -- mid-round rescue takeover -------------------------------------

    def _begin_takeover(self) -> None:
        """Divert the tripped rung's replay traffic to the rescue path.

        Only rungs built on a :class:`ReplayTracker` (the native
        module) support takeover; persist/channel rungs retry through
        their own internal paths and demote at the round boundary.
        """
        tracker = getattr(self.inner, "_tracker", None)
        if tracker is None or tracker.divert is not None:
            return
        tracker.divert = self._rescue_units
        if tracker.replay:
            units = list(tracker.replay)
            del tracker.replay[:]
            self._rescue_units(units)
        self._takeover_gen += 1
        self.env.process(
            self._takeover_sweep(tracker, self._takeover_gen))

    def _takeover_sweep(self, tracker, gen):
        """Rescue in-flight WRs stranded on dead QPs.

        The recovery loop sweeps vanished WRs itself while it runs (its
        sweep routes through ``queue`` and therefore the divert); this
        process picks up WRs whose QP dies *after* the loop exited.
        """
        delay = self.cluster.config.part.reconnect_delay
        while (self._takeover_gen == gen
               and (tracker._inflight or tracker.recovering)):
            yield delay
            if tracker.recovering:
                continue
            dead = [wr_id for wr_id, (tok, _) in tracker._inflight.items()
                    if tok.state is not QPState.RTS]
            for wr_id in dead:
                _, payload = tracker._inflight.pop(wr_id)
                self._rescue_units(tracker._on_dropped(payload))

    def _rescue_units(self, units) -> None:
        """Send replay-bound (start, count) runs per-partition over the
        shared p2p channel (``PART_DATA`` writes addressed to *this*
        ladder, so arrival lands in :meth:`handle_inbound`)."""
        counters = self.cluster.fabric.counters
        req = self.send_req
        size = req.partition_size
        proto = self.sender.config.ucx.protocol_for(size)
        for start, count in units:
            for p in range(start, start + count):
                if p in self._rescue_pending:
                    continue
                self._rescue_pending.add(p)
                counters.inc("chaos.rescued_partitions")
                send_off = req.buf.partition_offset(p)
                recv_off = self.recv_req.buf.partition_offset(p)
                header = Header(
                    kind=MsgKind.PART_DATA, seq=make_seq(),
                    sender=self.sender.rank, tag=req.tag, nbytes=size,
                    ref=(self, p))
                self._rescue_channel.queue.hand_off(_PumpItem(
                    header=header,
                    gather=[SGE(self._rescue_send_mr.addr + send_off, size,
                                self._rescue_send_mr.lkey)],
                    target=(self._rescue_recv_mr.addr + recv_off,
                            self._rescue_recv_mr.rkey),
                    cpu_cost=0.0,
                    gap=proto.gap,
                    on_sent=lambda wc, p=p: self._rescue_pending.discard(p)))

    def handle_inbound(self, process: "MPIProcess", header, payload):
        """Receiver side of the rescue path: land one partition.

        Deduplicates against partitions the rung already delivered (a
        replayed WR may have raced its own rescue) — rescue duplicates
        count separately from the rung's ``mpi.duplicates_dropped`` so
        the exactly-once invariant on the primary path stays checkable.
        """
        ucx = process.config.ucx
        partition = payload
        proto = ucx.protocol_for(header.nbytes)
        yield proto.t_recv
        req = self.recv_req
        if bool(req.arrived[partition]):
            self.cluster.fabric.counters.inc("chaos.rescue_duplicates")
        else:
            req.mark_arrived(partition, 1)
        if req.all_arrived and not req.done:
            req.mark_complete()


class LadderSpec(ModuleSpec):
    """Spec wrapping ordered rung specs (both sides pass equal ladders)."""

    name = "ladder"

    def __init__(self, rungs):
        rungs = list(rungs)
        if not rungs:
            raise ValueError("a ladder needs at least one rung")
        self.rungs = rungs

    def create(self, cluster, send_req, recv_req):
        return LadderModule(cluster, send_req, recv_req, self.rungs)
