"""The native-verbs partitioned module (paper Section IV).

Maps a matched Psend/Precv pair directly onto InfiniBand resources:

* per-pair PDs, CQs, and ``n_qps`` connected QPs;
* send/receive buffers registered once at init;
* ``MPI_Pready`` performs an atomic add-and-fetch on the transport
  group's arrival counter; the thread that completes a group posts the
  group's ``RDMA_WRITE_WITH_IMM`` WR, with (start, count) packed in the
  immediate;
* receive WRs are pre-posted in ``MPI_Start``;
* the δ-timer path (Section IV-D), when armed, lets the first arriver
  of a group sleep up to δ and flush the arrived runs early.

WRs for a group always use the same QP: rail ``group % n_rails`` (one
rail per NIC port), QP ``group % n_qps`` within it — striped scheduling
through :class:`repro.engine.Rail`.  Software flow control parks a
poster when a QP's 16-outstanding-RDMA budget is exhausted.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.aggregators import Aggregator, PlanChoice
from repro.core.immediate import decode_immediate, encode_immediate
from repro.engine import (
    CreditManager,
    ReplayTracker,
    build_rails,
    reconnect_walk,
    restock,
)
from repro.errors import PartitionError
from repro.ib.constants import (
    ACCESS_LOCAL,
    ACCESS_REMOTE_WRITE,
    Opcode,
    QPState,
    WCStatus,
)
from repro.ib.wr import SGE, SendWR
from repro.mpi.modules import ModuleSpec, PartitionedModule
from repro.sim.sync import AtomicCounter

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess

_wrid = itertools.count(1 << 32)  # distinct from the endpoint namespace


class NativeVerbsModule(PartitionedModule):
    """One matched pair's verbs transport with aggregation."""

    def __init__(self, cluster, send_req, recv_req, aggregator: Aggregator):
        super().__init__(cluster, send_req, recv_req)
        self.aggregator = aggregator
        self.sender: "MPIProcess" = send_req.process
        self.receiver: "MPIProcess" = recv_req.process
        #: What setup() provisioned for (QPs, staging); fixed per request.
        self.plan: Optional[PlanChoice] = None
        #: This round's plan.  Without a controller it *is* ``plan`` —
        #: set once in setup() and never replaced, so every read below
        #: is bit-identical to reading ``plan`` directly; with one,
        #: _sync_round() replaces it at the top of each round.
        self._round_plan: Optional[PlanChoice] = None
        self.group_size = 0
        # set up in setup(): one rail per NIC port, plus flat QP lists
        # in creation order for introspection and the recovery walk.
        self.send_rails = []
        self.recv_rails = []
        self.send_qps = []
        self.recv_qps = []
        self.send_cq = None
        self.recv_cq = None
        self.send_mr = None
        self.recv_mr = None
        # per-round sender state
        self._arrived: Optional[np.ndarray] = None
        self._sent: Optional[np.ndarray] = None
        self._flushed: Optional[np.ndarray] = None
        self._counters: list[AtomicCounter] = []
        self._ready_count = 0
        self._posted = 0
        self._acked = 0
        #: Posts currently between sent-marking and the actual
        #: ``post_send`` (inside WR-build cost or flow control); non-zero
        #: keeps the round open while posted/acked are inconsistent.
        self._inflight_posts = 0
        # Round credit: the sender may only put data on the wire for
        # round N once the receiver's MPI_Start for round N has re-armed
        # the buffers — the remote-readiness problem behind the MPI
        # Forum's MPI_Pbuf_prepare proposal (Section IV-A).  The
        # receiver's Start grants a credit that reaches the sender one
        # fabric latency later; posts issued before it are deferred.
        self._credit = CreditManager(self.env, self._flush_deferred)
        self._round_pready_times: Optional[list] = None
        #: δ used each round (diagnostics for the auto-tuner).
        self.delta_history: list[float] = []
        # Closed-loop tuning (repro.autotune): the controller, and the
        # per-round marks its observations are measured from.
        self._controller = None
        self._planned_round: Optional[int] = None
        self._round_t0 = 0.0
        self._round_send_done = 0.0
        self._round_recv_done = 0.0
        self._counter_snapshot: dict = {}
        self._wrs_snapshot = 0
        self._flush_snapshot = 0
        # Fault recovery: the tracker maps every in-flight WR to its QP
        # and (runs, sg_seq) payload, so a WR that dies — by error CQE
        # or by vanishing with a killed QP — is replayed exactly once.
        self._tracker = ReplayTracker(
            self.env, cluster.fabric, cluster.config.part.reconnect_delay)
        self._tracker.bind(
            recover_walk=self._recover_walk,
            restock=self._restock_recv,
            on_dropped=self._drop_wr,
            can_replay=self._can_replay,
            replay_unit=self._replay_unit)
        #: Degraded aggregation: post per-partition instead of grouped
        #: runs while the channel is suspect (cleared after a clean round).
        self._degraded = False
        self._fault_in_round = False
        # statistics across rounds
        self.total_wrs_posted = 0
        self.timer_flushes = 0

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def setup(self, send_req, recv_req) -> None:
        config = self.cluster.config
        self.plan, self._controller = self.aggregator.provision(
            send_req.n_partitions, send_req.partition_size, config)
        self._round_plan = self.plan
        if send_req.n_partitions % self.plan.n_transport != 0:
            raise PartitionError(
                f"{self.plan.n_transport} transport partitions do not divide "
                f"{send_req.n_partitions} user partitions")
        self.group_size = send_req.n_partitions // self.plan.n_transport
        if self._controller is not None:
            # QPs are provisioned for the largest arm; every arm must
            # also produce an aligned grouping of this request.
            choices = list(self._controller.policy.candidates())
            if self._controller.pinned is not None:
                choices.append(self._controller.pinned)
            for choice in choices:
                if (send_req.n_partitions % choice.n_transport != 0
                        or choice.n_qps > self.plan.n_qps):
                    raise PartitionError(
                        f"autotune candidate {choice} does not fit "
                        f"{send_req.n_partitions} user partitions / "
                        f"{self.plan.n_qps} provisioned QPs")
        send_pd = self.sender.ib.alloc_pd()
        recv_pd = self.receiver.ib.alloc_pd()
        self.send_cq = self.sender.ib.create_cq(capacity=1 << 20)
        self.recv_cq = self.receiver.ib.create_cq(capacity=1 << 20)
        self.send_rails, self.recv_rails = build_rails(
            self.sender.ib, self.receiver.ib, send_pd, recv_pd,
            self.send_cq, self.recv_cq, self.plan.n_qps, config.nic.n_ports)
        self.send_qps = [qp for rail in self.send_rails for qp in rail]
        self.recv_qps = [qp for rail in self.recv_rails for qp in rail]
        self.send_mr = send_pd.reg_mr(send_req.buf, ACCESS_LOCAL)
        self.recv_mr = recv_pd.reg_mr(
            recv_req.buf, ACCESS_LOCAL | ACCESS_REMOTE_WRITE)
        if self.plan.scatter_gather:
            # The rejected design of Section IV-D needs receive-side
            # staging: gathered (non-contiguous) flushes land here and
            # are copied out once the layout is known.
            from repro.mem.buffer import Buffer

            self._staging = Buffer(
                2 * recv_req.buf.nbytes,
                backed=self.cluster.config.real_buffers)
            self._staging_mr = recv_pd.reg_mr(
                self._staging, ACCESS_LOCAL | ACCESS_REMOTE_WRITE)
            self._staging_head = 0
            self._sg_layouts: dict[int, tuple] = {}
            self._sg_seq = 0
        self.sender.router.bind(
            self.send_cq, self._on_send_wc, on_idle=self._check_send_complete)
        self.receiver.router.bind(
            self.recv_cq, self._on_recv_wc, on_idle=self._check_recv_complete)

    # -- compat: round-credit state now lives on the CreditManager ------

    @property
    def _armed_round(self) -> int:
        return self._credit.armed_round

    @property
    def _deferred(self) -> list:
        return self._credit.deferred

    # ------------------------------------------------------------------
    # round management
    # ------------------------------------------------------------------

    def _sync_round(self, round_no: int) -> None:
        """Close the loop at a round boundary (controller runs only).

        Idempotent per round — ``start_send`` and ``start_recv`` both
        call it and whichever runs first does the work.  Feeds the
        previous round's observation to the controller, then applies
        its choice as this round's plan.  Pure attribute bookkeeping:
        no yields, no virtual time.
        """
        if round_no == self._planned_round:
            return
        counters = self.cluster.fabric.counters
        if (self._planned_round is not None
                and self._round_pready_times is not None):
            from repro.autotune.observe import IterationObservation

            deltas = counters.since(self._counter_snapshot)
            # An observation that overlapped a recovery window measures
            # the fault, not the arm — quarantine it so the tuner's
            # statistics stay clean (chaos ladder, PR 6).
            tainted = bool(
                deltas.get("ib.retry_exhausted", 0)
                or deltas.get("ib.reconnects", 0)
                or self._tracker.recovering
                or self._fault_in_round)
            if tainted:
                counters.inc("autotune.quarantined")
            self._controller.observe(IterationObservation(
                round=self._planned_round,
                completion_time=max(self._round_send_done,
                                    self._round_recv_done) - self._round_t0,
                pready_times=tuple(self._round_pready_times),
                wrs_posted=self.total_wrs_posted - self._wrs_snapshot,
                timer_flushes=self.timer_flushes - self._flush_snapshot,
                retransmits=deltas.get("ib.retransmits", 0),
                tainted=tainted,
            ))
        # Never flip the layout under pending recovery or replay: the
        # queued units were grouped under the previous round's plan.
        hold = self._tracker.recovering or bool(self._tracker.replay)
        choice = self._controller.plan_for_round(round_no, hold=hold)
        self._round_plan = choice
        self.group_size = self.send_req.n_partitions // choice.n_transport
        self._planned_round = round_no
        self._round_t0 = self.env.now
        self._counter_snapshot = counters.snapshot()
        self._wrs_snapshot = self.total_wrs_posted
        self._flush_snapshot = self.timer_flushes

    def start_send(self, req):
        n = req.n_partitions
        host = self.sender.config.host
        if self._controller is not None:
            self._sync_round(req.round)
        active = self._round_plan
        if active.delta is not None:
            self.delta_history.append(active.delta)
        self._round_pready_times = [0.0] * n
        self._arrived = np.zeros(n, dtype=bool)
        self._sent = np.zeros(n, dtype=bool)
        self._flushed = np.zeros(active.n_transport, dtype=bool)
        atomic_cost = self.sender.software_cost(host.t_atomic)
        self._counters = [
            AtomicCounter(self.env, access_cost=atomic_cost)
            for _ in range(active.n_transport)
        ]
        self._ready_count = 0
        self._posted = 0
        self._acked = 0
        # Degradation hysteresis: one clean round restores aggregation.
        if (self._degraded and not self._fault_in_round
                and not self._tracker.recovering):
            self._degraded = False
        self._fault_in_round = False
        return
        yield  # pragma: no cover - generator protocol

    def _restock_recv(self) -> None:
        """Top each QP's RQ up to its worst-case message count.

        Shared by ``MPI_Start`` and channel recovery (a reconnected QP
        comes back with whatever survived the flush re-armed here).
        """
        active = self._round_plan
        per_group_max = self.group_size if active.delta is not None else 1
        if self.cluster.fabric.faults is not None:
            # A degraded sender may downgrade any group to
            # per-partition sends; stock for that worst case so
            # replays never starve the RQ into an RNR livelock.
            per_group_max = self.group_size
        n_rails = len(self.recv_rails)
        targets = [[0] * self.plan.n_qps for _ in range(n_rails)]
        for g in range(active.n_transport):
            targets[g % n_rails][g % active.n_qps] += per_group_max
        for rail, rail_targets in zip(self.recv_rails, targets):
            for qp, target in zip(rail, rail_targets):
                restock(qp, target, lambda: next(_wrid))

    def start_recv(self, req):
        """Pre-post this round's receive WRs (Section IV-A).

        Tops each QP's RQ up to its worst-case message count so stale
        entries from timer rounds are reused rather than leaked.
        """
        if self._controller is not None:
            # Restock must match this round's plan, whichever side's
            # Start runs first.
            self._sync_round(req.round)
        self._restock_recv()
        # Grant the sender this round's credit, one fabric latency away.
        flight = self.cluster.fabric.latency(
            self.receiver.node_id, self.sender.node_id)
        self._credit.grant(req.round, flight)
        return
        yield  # pragma: no cover - generator protocol

    # ------------------------------------------------------------------
    # sender path
    # ------------------------------------------------------------------

    def pready(self, req, partition: int):
        """Atomic arrival marking plus group-completion posting."""
        group = partition // self.group_size
        self._arrived[partition] = True
        self._round_pready_times[partition] = self.env.now
        self._ready_count += 1
        count = yield from self._counters[group].add_and_fetch(1)
        if self._round_plan.delta is None:
            if count == self.group_size:
                yield from self._post_range(
                    group * self.group_size, self.group_size)
        else:
            if self._flushed[group]:
                # Post-flush arrivals send themselves (plus any arrived
                # neighbours not yet sent).  The partition may already
                # have been swept up by a flush that ran while this
                # thread was inside the atomic add — never re-send it.
                if not self._sent[partition]:
                    yield from self._post_run_around(partition, group)
            elif count == self.group_size:
                # Last arriver: send whatever remains (the whole group
                # if the timer never fired).
                yield from self._post_unsent_runs(group)
            elif count == 1:
                # First arriver sleeps up to delta, checking the flag.
                yield from self._timer_wait(group)

    def _timer_wait(self, group: int):
        cfg = self.cluster.config.part
        delta = self._round_plan.delta
        waited = 0.0
        while waited < delta:
            step = min(cfg.timer_poll, delta - waited)
            yield step
            waited += step
            if self._counters[group].value >= self.group_size:
                return  # last arriver handled the group
        if self._counters[group].value >= self.group_size:
            return
        self._flushed[group] = True
        self.timer_flushes += 1
        yield from self._post_unsent_runs(group)

    def _collect_unsent_runs(self, group: int) -> list[tuple[int, int]]:
        """Maximal contiguous (start, count) runs of arrived-but-unsent."""
        base = group * self.group_size
        runs = []
        i = base
        end = base + self.group_size
        while i < end:
            if self._arrived[i] and not self._sent[i]:
                j = i
                while j < end and self._arrived[j] and not self._sent[j]:
                    j += 1
                runs.append((i, j - i))
                i = j
            else:
                i += 1
        return runs

    def _post_unsent_runs(self, group: int):
        """Post arrived-but-unsent partitions: one WR per contiguous run
        (the paper's design), or one multi-SGE WR into receive-side
        staging (the rejected scatter/gather alternative).

        Posting yields (WR build cost, flow control), and new arrivals
        may send themselves in those gaps — so the run list is
        re-collected after every post instead of trusted across yields.
        The SG path is immune: it marks every collected partition sent
        before its first yield.
        """
        runs = self._collect_unsent_runs(group)
        if self.plan.scatter_gather and len(runs) > 1:
            yield from self._post_scatter_gather(group, runs)
            return
        while runs:
            start, count = runs[0]
            yield from self._post_range(start, count)
            runs = self._collect_unsent_runs(group)

    def _post_run_around(self, partition: int, group: int):
        base = group * self.group_size
        end = base + self.group_size
        lo = partition
        while lo > base and self._arrived[lo - 1] and not self._sent[lo - 1]:
            lo -= 1
        hi = partition + 1
        while hi < end and self._arrived[hi] and not self._sent[hi]:
            hi += 1
        yield from self._post_range(lo, hi - lo)

    def _post_range(self, start: int, count: int):
        """One RDMA-write-with-immediate for user partitions [start, +count).

        Deferred (without posting) when the receiver's round credit has
        not arrived yet; the credit flushes the backlog.  While the
        channel is degraded by a fault, aggregation downgrades to
        per-partition WRs so a retransmitted unit of loss is one
        partition, not a whole transport group.
        """
        self._sent[start : start + count] = True
        if not self._credit.ready(self.send_req.round):
            self._credit.defer((start, count))
            return
        if (self._degraded and count > 1
                and self.cluster.config.part.degrade_on_fault):
            self.cluster.fabric.counters.inc("mpi.degraded_posts", count)
            for p in range(start, start + count):
                yield from self._issue_wr(p, 1)
            return
        yield from self._issue_wr(start, count)

    def _flush_deferred(self):
        """Post everything queued behind the round credit; yields.

        Entries are popped only *after* their WR is on the queue: the
        completion condition treats a non-empty deferred list as
        work-outstanding, and popping first would open a window (inside
        ``_issue_wr``'s post cost) where ``acked == posted`` with
        nothing deferred reads as round-complete — letting the round
        re-arm under an in-flight flush and corrupting the counters.
        """
        deferred = self._credit.deferred
        while deferred:
            start, count = deferred[0]
            yield from self._issue_wr(start, count)
            deferred.pop(0)

    def _issue_wr(self, start: int, count: int):
        """Build and post one WR; guarded against premature completion.

        Between sent-flag marking and the ``post_send`` there are yields
        (WR-build cost, flow control) during which posted/acked look
        consistent to the send poller even though work is pending —
        ``_inflight_posts`` keeps the round open across that window.
        """
        req = self.send_req
        self._inflight_posts += 1
        try:
            yield self.sender.software_cost(self.sender.config.host.t_post)
            group = start // self.group_size
            rail = self.send_rails[group % len(self.send_rails)]
            qp = yield from rail.acquire(group % self._round_plan.n_qps)
            if qp.state is not QPState.RTS:
                # The channel died under us (wait_rdma_slot fires
                # immediately on an ERROR QP).  Park the range: channel
                # recovery replays it after the reconnect walk.
                if not self._recovery_enabled:
                    from repro.errors import ChannelDownError

                    raise ChannelDownError(
                        "send QP is down and reconnect is disabled",
                        **self._failure_context(
                            partitions=[(start, count)], qp_num=qp.qp_num,
                            status=qp.state.value))
                self._tracker.queue([(start, count)])
                self._note_fault()
                return
            offset, length = req.buf.range_offset(start, count)
            wr_id = next(_wrid)
            qp.post_send(SendWR(
                wr_id=wr_id,
                opcode=Opcode.RDMA_WRITE_WITH_IMM,
                sg_list=[SGE(self.send_mr.addr + offset, length,
                             self.send_mr.lkey)],
                remote_addr=self.recv_mr.addr + offset,
                rkey=self.recv_mr.rkey,
                imm_data=encode_immediate(start, count),
            ))
            self._tracker.track(wr_id, qp, (((start, count),), None))
            self._posted += 1
            self.total_wrs_posted += 1
        finally:
            self._inflight_posts -= 1

    #: Immediate "start" value marking a scatter/gather staging message.
    _SG_MARKER = 0xFFFF

    def _post_scatter_gather(self, group: int, runs: list[tuple[int, int]]):
        """One multi-SGE WR into staging for non-contiguous runs."""
        req = self.send_req
        psize = req.partition_size
        for start, count in runs:
            self._sent[start : start + count] = True
        if not self._credit.ready(self.send_req.round):
            # Credit not here yet: queue as plain runs (the grouping
            # opportunity has passed by the time the credit lands).
            self._credit.defer_all(runs)
            return
        host = self.sender.config.host
        self._inflight_posts += 1
        try:
            # WR build cost grows with the gather-list length.
            yield self.sender.software_cost(
                host.t_post + 50e-9 * len(runs))
            rail = self.send_rails[group % len(self.send_rails)]
            qp = yield from rail.acquire(group % self._round_plan.n_qps)
            if qp.state is not QPState.RTS:
                if not self._recovery_enabled:
                    from repro.errors import ChannelDownError

                    raise ChannelDownError(
                        "send QP is down and reconnect is disabled",
                        **self._failure_context(
                            partitions=runs, qp_num=qp.qp_num,
                            status=qp.state.value))
                self._tracker.queue(runs)
                self._note_fault()
                return
            total = sum(count for _, count in runs) * psize
            if self._staging_head + total > self._staging.nbytes:
                self._staging_head = 0
            staging_offset = self._staging_head
            self._staging_head += total
            seq = self._sg_seq = (self._sg_seq + 1) & 0xFFFF or 1
            self._sg_layouts[seq] = (tuple(runs), staging_offset)
            sg_list = []
            for start, count in runs:
                offset, length = req.buf.range_offset(start, count)
                sg_list.append(SGE(self.send_mr.addr + offset, length,
                                   self.send_mr.lkey))
            wr_id = next(_wrid)
            qp.post_send(SendWR(
                wr_id=wr_id,
                opcode=Opcode.RDMA_WRITE_WITH_IMM,
                sg_list=sg_list,
                remote_addr=self._staging_mr.addr + staging_offset,
                rkey=self._staging_mr.rkey,
                imm_data=(self._SG_MARKER << 16) | seq,
            ))
            self._tracker.track(wr_id, qp, (tuple(runs), seq))
            self._posted += 1
            self.total_wrs_posted += 1
        finally:
            self._inflight_posts -= 1

    def _handle_scatter_gather(self, imm: int):
        """Receiver side: parse layout, copy staging into place; yields."""
        seq = imm & 0xFFFF
        runs, staging_offset = self._sg_layouts.pop(seq)
        req = self.recv_req
        psize = req.partition_size
        host = self.receiver.config.host
        part_cfg = self.receiver.config.part
        total = sum(count for _, count in runs) * psize
        # Layout handling per run, plus the staging copy-out — the
        # receive-side costs that made the paper reject this design.
        yield part_cfg.t_rx_wr * len(runs) + total / host.memcpy_rate
        cursor = staging_offset
        for start, count in runs:
            offset, length = req.buf.range_offset(start, count)
            req.buf.write(offset, self._staging.read(cursor, length))
            cursor += length
            req.mark_arrived(start, count)

    # ------------------------------------------------------------------
    # fault recovery
    # ------------------------------------------------------------------

    @property
    def _recovery_enabled(self) -> bool:
        return self._tracker.recovery_enabled

    def _note_fault(self) -> None:
        """Record a channel fault and kick the recovery process once."""
        self._fault_in_round = True
        if self.cluster.config.part.degrade_on_fault:
            self._degraded = True
        if self.ladder is not None:
            self.ladder.note_failure("retry_exhausted", module=self)
        self._tracker.kick()

    def _failure_context(self, partitions=None, **extra) -> dict:
        """Structured context for transport errors raised off this pair."""
        nic = self.cluster.config.nic
        ctx = dict(
            edge=(self.sender.rank, self.receiver.rank),
            epoch=self.send_req.round,
            retries={"retry_cnt": nic.retry_cnt, "rnr_retry": nic.rnr_retry},
        )
        if partitions is not None:
            ctx["partitions"] = tuple(partitions)
        ctx.update(extra)
        return ctx

    def _handle_send_failure(self, wc):
        """A send WR died (retry exhaustion or flush): stash for replay.

        The failed WR's ranges move from the in-flight map to the replay
        list exactly once — ``_posted`` drops with them so the round's
        acked==posted invariant is restored by the replay posts.
        """
        entry = self._tracker.fail(wc.wr_id)
        runs = None
        if entry is not None:
            _, payload = entry
            runs = self._drop_wr(payload)
            self._tracker.queue(runs)
        if not self._recovery_enabled:
            from repro.errors import RetryExhaustedError

            raise RetryExhaustedError(
                "send WR failed and reconnect is disabled",
                **self._failure_context(
                    partitions=runs, wr_id=wc.wr_id, qp_num=wc.qp_num,
                    status=wc.status.value))
        self._note_fault()
        return
        yield  # pragma: no cover - generator protocol

    def _drop_wr(self, payload) -> tuple:
        """Undo a dead WR's accounting; returns its replayable runs."""
        runs, sg_seq = payload
        if sg_seq is not None:
            self._sg_layouts.pop(sg_seq, None)
        self._posted -= 1
        return runs

    def _recover_walk(self) -> set:
        """Walk failed QP pairs back to RTS; tokens are the send QPs."""
        pairs = ((qp_s, qp_s, qp_r)
                 for qp_s, qp_r in zip(self.send_qps, self.recv_qps))
        return reconnect_walk(pairs)

    def _can_replay(self, unit) -> bool:
        start, _ = unit
        group = start // self.group_size
        rail = self.send_rails[group % len(self.send_rails)]
        return rail.peek(group % self._round_plan.n_qps).state is QPState.RTS

    def _replay_unit(self, unit):
        start, count = unit
        yield from self._issue_wr(start, count)

    # ------------------------------------------------------------------
    # completion handling (dispatched by the CompletionRouter)
    # ------------------------------------------------------------------

    def _on_send_wc(self, wc):
        if not wc.ok:
            yield from self._handle_send_failure(wc)
            return
        self._acked += 1
        self._tracker.complete(wc.wr_id)

    def _check_send_complete(self) -> None:
        if self._retired_for(self.send_req):
            return
        if (not self.send_req.done
                and self._arrived is not None
                and self._ready_count == self.send_req.n_partitions
                and not self._credit.deferred
                and self._inflight_posts == 0
                and not self._tracker.replay
                and not self._tracker.recovering
                and self._acked == self._posted
                and (self.ladder is None
                     or not self.ladder.blocks_completion)
                and bool(self._sent.all())):
            self._round_send_done = self.env.now
            self.send_req.mark_complete()

    def _on_recv_wc(self, wc):
        part_cfg = self.receiver.config.part
        req = self.recv_req
        if not wc.ok:
            # Flushed receives from a channel failure: recovery
            # re-posts them, nothing arrived, nothing to mark.
            if (wc.status is WCStatus.WR_FLUSH_ERR
                    and self._recovery_enabled):
                self.cluster.fabric.counters.inc("mpi.flushed_recv_wcs")
                return
            wc.require_success()
        if (wc.imm_data >> 16) == self._SG_MARKER:
            yield from self._handle_scatter_gather(wc.imm_data)
        else:
            yield part_cfg.t_rx_wr
            start, count = decode_immediate(wc.imm_data)
            if bool(req.arrived[start : start + count].all()):
                # Exactly-once safety net: a replayed WR whose
                # original did land is dropped here.
                self.cluster.fabric.counters.inc("mpi.duplicates_dropped")
            else:
                req.mark_arrived(start, count)

    def _check_recv_complete(self) -> None:
        req = self.recv_req
        if self._retired_for(req):
            return
        if not req.done and req.all_arrived:
            self._round_recv_done = self.env.now
            req.mark_complete()


class NativeSpec(ModuleSpec):
    """Spec for the native module; pass the same aggregator both sides."""

    name = "native_verbs"

    def __init__(self, aggregator: Aggregator):
        self.aggregator = aggregator

    def create(self, cluster, send_req, recv_req):
        return NativeVerbsModule(cluster, send_req, recv_req, self.aggregator)
