"""The baseline ``part_persist`` module: one message per user partition.

Mirrors Open MPI 5.0.x's persistent partitioned component over UCX:

* ``MPI_Pready`` triggers an internal per-partition send through the
  UCX-like endpoint (eager below 8 KiB, rendezvous above — with the
  1 KiB bcopy/zcopy switch whose protocol spikes the paper calls out);
* every partition message takes the shared endpoint lock in the calling
  thread (the UCX worker serialization that aggregation amortizes —
  the lock-contention effect behind Fig. 8's 128-partition results);
* rendezvous-sized partitions use UCX's **receiver-driven get-zcopy**:
  the RTS header triggers an RDMA READ issued from the receiver's
  progress engine, so bulk data flows without any sender-side CPU —
  this is what gives the persistent baseline its strong early-bird
  behaviour in the perceived-bandwidth results (Fig. 9).  An
  ack-to-sender (ATS) message closes the protocol so the sender can
  complete its request;
* the receiver's progress engine pays a per-message dispatch cost.

No aggregation: what the paper compares everything against.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import TYPE_CHECKING

from repro.engine import CreditManager, Rail, RailPolicy, reconnect_walk
from repro.ib.constants import (
    ACCESS_LOCAL,
    ACCESS_REMOTE_READ,
    Opcode,
    QPState,
)
from repro.ib.wr import SGE, SendWR
from repro.mpi.endpoint import Header, MsgKind, _PumpItem, make_seq
from repro.mpi.modules import ModuleSpec, PartitionedModule
from repro.sim.sync import SimLock

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess

_read_wrid = itertools.count(1 << 48)


class PersistModule(PartitionedModule):
    """Baseline transport for one matched pair."""

    def __init__(self, cluster, send_req, recv_req):
        super().__init__(cluster, send_req, recv_req)
        self.sender: "MPIProcess" = send_req.process
        self.receiver: "MPIProcess" = recv_req.process
        self.channel = None
        self.recv_mr = None
        self.send_mr = None
        #: UCX worker lock: per-partition posts serialize on this.
        self.worker_lock = SimLock(self.env)
        #: The UCX protocol tier of every partition message and its
        #: sender CPU: the size is fixed per request, so both are
        #: resolved once, here.
        self._proto = proto = cluster.config.ucx.protocol_for(
            send_req.partition_size)
        host = self.sender.config.host
        self._send_cost = proto.t_send + host.t_atomic
        if proto.copies:
            self._send_cost += send_req.partition_size / host.memcpy_rate
        #: Per partition, its rendezvous READ's scatter list (set up).
        self._sinks = []
        # Round credit (remote buffer readiness): partition messages for
        # round N only go on the wire once the receiver's Start for
        # round N has been seen — the internal-matching gate real
        # persistent implementations have.  Credit lands one fabric
        # latency after the receiver re-arms.
        self._credit = CreditManager(self.env, self._drain_deferred)
        # per-round sender state
        self._acked = 0
        self._readied = 0

    # -- setup ------------------------------------------------------------

    def setup(self, send_req, recv_req) -> None:
        from repro.ib import verbs

        self.channel = self.sender.channel_to(self.receiver.rank)
        # The send buffer must be remotely *readable* for get-zcopy.
        self.send_mr = self.sender.p2p_pd.reg_mr(
            send_req.buf, ACCESS_LOCAL | ACCESS_REMOTE_READ)
        self.recv_mr = self.receiver._register(recv_req.buf,
                                               remote_write=True)
        # QP pairs for the rendezvous gets, owned by the receiver (the
        # requester side of the RDMA READ).  Two rails, as UCX
        # multi-path rndv, so bulk reads reach line rate.  Completions
        # land on the receiver's shared p2p CQ.
        self.read_qps = []
        for _ in range(self.cluster.config.ucx.n_lanes):
            requester = self.receiver.ib.create_qp(
                self.receiver.p2p_pd, self.receiver.p2p_cq,
                self.receiver.p2p_cq)
            responder = self.sender.ib.create_qp(
                self.sender.p2p_pd, self.sender.p2p_cq, self.sender.p2p_cq)
            verbs.connect_qps(requester, responder)
            # No RQ stocking: RDMA READs consume no receive WRs.
            self.read_qps.append(requester)
        self.read_rail = Rail(self.read_qps, RailPolicy.ROUND_ROBIN)
        if self._proto.rendezvous:
            size = recv_req.partition_size
            self._sinks = [[SGE(self.recv_mr.addr + p * size, size,
                                self.recv_mr.lkey)]
                           for p in range(recv_req.n_partitions)]

    # -- round management ----------------------------------------------------

    def start_send(self, req):
        self._acked = 0
        self._readied = 0
        return
        yield  # pragma: no cover - generator protocol

    def start_recv(self, req):
        flight = self.cluster.fabric.latency(
            self.receiver.node_id, self.sender.node_id)
        self._credit.grant(req.round, flight)
        return
        yield  # pragma: no cover - generator protocol

    def _drain_deferred(self):
        """Dispatch everything parked behind the round credit."""
        while self._credit.deferred:
            self._dispatch(self._credit.deferred.pop(0))
            yield 0.0

    # -- sender path ------------------------------------------------------------

    def pready(self, req, partition: int):
        """Per-partition internal isend (in the calling thread)."""
        sender = self.sender
        # The UCX worker lock: held while the protocol code runs.  The
        # acquisition itself costs a contended cache-line transfer,
        # like the native module's arrival atomics.
        yield from self.worker_lock.hold()
        try:
            yield self._send_cost * sender.sw_multiplier
            self._readied += 1
            if self._credit.armed_round < req.round:
                # Receiver has not re-armed this round yet: park the
                # partition until its credit arrives.
                self._credit.defer(partition)
            else:
                self._dispatch(partition)
        finally:
            self.worker_lock.release()
        # Give the progress engine a poke (non-blocking), as the real
        # module does from within MPI calls — this is what lets pending
        # handshakes be handled while threads are still arriving.
        yield from sender.engine.progress_once()

    def _dispatch(self, partition: int) -> None:
        """Put one readied partition (``MPI_Pready`` checked its index) on
        the wire: eager data straight into the receive buffer, or an RTS."""
        req = self.send_req
        size = req.partition_size
        if not self._proto.rendezvous:
            # Positional, once per message: (kind, seq, sender, tag,
            # nbytes, ref) and (header, gather, target, cpu_cost, gap,
            # on_sent).
            header = Header(MsgKind.PART_DATA, make_seq(), self.sender.rank,
                            req.tag, size, (self, partition))
            self.channel.queue.hand_off(_PumpItem(
                header, [SGE(self.send_mr.addr + partition * size, size,
                             self.send_mr.lkey)],
                (self.recv_mr.addr + partition * size, self.recv_mr.rkey),
                0.0, self._proto.gap, self._on_partition_acked))
        else:
            # Rendezvous: RTS now; the receiver's progress engine
            # answers with an RDMA READ of the partition.
            header = Header(MsgKind.PART_RTS, make_seq(), self.sender.rank,
                            req.tag, size, (self, partition))
            self.channel.queue.hand_off(_PumpItem(
                header, None, None, 0.0, self.sender.config.ucx.gap_inline))

    def _issue_read(self, partition: int):
        """Receiver-driven get: RDMA READ the partition into place."""
        requester = yield from self.read_rail.acquire()
        if requester.state is not QPState.RTS:
            # The read rail died under us: reconnect and retry later.
            yield from self._on_read_failed(partition)
            return
        wr_id = next(_read_wrid)
        # The callbacks are generators: the completion router runs them
        # and charges their completion-handling time.
        router = self.receiver.router
        router.successes[wr_id] = partial(self._on_read_complete, partition)
        router.failures[wr_id] = (
            None, partial(self._on_read_failed, partition), requester)
        # (wr_id, opcode, sg_list, remote_addr, rkey)
        requester.post_send(SendWR(
            wr_id, Opcode.RDMA_READ, self._sinks[partition],
            self.send_mr.addr + partition * self.send_req.partition_size,
            self.send_mr.rkey))

    def _on_read_failed(self, partition: int, _wc=None):
        """A get-zcopy READ died: reconnect the read rails and re-issue.

        Nothing landed (a failed READ scatters no data), so re-issuing
        after the reconnect walk is exactly-once by construction.
        """
        self.cluster.fabric.counters["mpi.read_replays"] += 1
        if self.ladder is not None:
            self.ladder.note_failure("read_replay", module=self)
        yield self.cluster.config.part.reconnect_delay
        reconnect_walk(
            (requester, requester,
             self.sender.ib.nic.qps.get(requester.dest_qp_num))
            for requester in self.read_rail)
        yield from self._issue_read(partition)

    def _on_read_complete(self, partition: int, _wc=None):
        """Receiver side: data landed; mark it and ack the sender.

        Runs as a generator on the receiver's progress engine and pays
        the per-message rendezvous completion cost (protocol state
        teardown + ATS build) that the old write-based path charged on
        data arrival.
        """
        yield self.receiver.config.ucx.rx_rndv
        self.recv_req.mark_arrived(partition, 1)
        if self.recv_req.all_arrived:
            self.recv_req.mark_complete()
        back = self.receiver.channel_to(self.sender.rank)
        ats = Header(MsgKind.PART_ATS, make_seq(), self.receiver.rank,
                     self.send_req.tag, 0, (self, partition))
        back.queue.hand_off(_PumpItem(
            ats, None, None, 0.0, self.receiver.config.ucx.gap_inline))

    def _on_partition_acked(self, wc=None) -> None:
        req = self.send_req
        if self.retired_after is not None and req.round > self.retired_after:
            return  # stale ack into a round a newer rung owns
        self._acked += 1
        if (self._acked == req.n_partitions
                and self._readied == req.n_partitions):
            req.mark_complete()

    # -- receiver path ------------------------------------------------------------

    def handle_inbound(self, process: "MPIProcess", header: Header, payload):
        """Dispatch PART_* messages on either side's progress engine."""
        ucx = process.config.ucx
        _module, partition = header.ref
        if header.kind is MsgKind.PART_DATA:
            yield self._proto.t_recv
            self.recv_req.mark_arrived(partition, 1)
            if self.recv_req.all_arrived:
                self.recv_req.mark_complete()
        elif header.kind is MsgKind.PART_RTS:
            # Receiver side: issue the rendezvous get (RDMA READ).
            yield ucx.rx_rndv
            yield from self._issue_read(partition)
        elif header.kind is MsgKind.PART_ATS:
            # Sender side: the receiver finished reading this partition.
            yield ucx.rx_inline
            self._on_partition_acked()


class PersistSpec(ModuleSpec):
    """Spec for the baseline module (pass to both init calls)."""

    name = "part_persist"

    def create(self, cluster, send_req, recv_req):
        return PersistModule(cluster, send_req, recv_req)
