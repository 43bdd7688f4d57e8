"""The last-resort ``channels`` module: shared p2p path, nothing else.

The bottom rung of the graceful-degradation ladder
(:mod:`repro.mpi.ladder`).  Where ``part_persist`` still provisions
dedicated rendezvous QPs for receiver-driven gets, this module creates
**no new IB resources at all**: every partition travels as one
``PART_DATA`` write over the process pair's shared p2p
:class:`~repro.mpi.endpoint.Channel`, whose pump, flow control, and
replay tracker already exist and already survive reconnects.

That makes it the maximally-degraded transport — slowest (one
serialized channel message per partition, no rendezvous offload), but
with the smallest possible surface exposed to a failing edge: an edge
whose dedicated QPs keep dying can always fall back to here, because
"here" needs nothing beyond what plain eager p2p needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine import CreditManager
from repro.mpi.endpoint import Header, MsgKind, _PumpItem, make_seq
from repro.mpi.modules import ModuleSpec, PartitionedModule
from repro.sim.sync import SimLock

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess


class ChannelModule(PartitionedModule):
    """Per-partition partitioned transport over the shared p2p channel."""

    def __init__(self, cluster, send_req, recv_req):
        super().__init__(cluster, send_req, recv_req)
        self.sender: "MPIProcess" = send_req.process
        self.receiver: "MPIProcess" = recv_req.process
        self.channel = None
        self.send_mr = None
        self.recv_mr = None
        #: Per-partition posts serialize here, like the persist module's
        #: UCX worker lock (same software path, same contention).
        self.worker_lock = SimLock(self.env)
        self._credit = CreditManager(self.env, self._drain_deferred)
        self._acked = 0
        self._readied = 0

    # -- setup ------------------------------------------------------------

    def setup(self, send_req, recv_req) -> None:
        self.channel = self.sender.channel_to(self.receiver.rank)
        self.send_mr = self.sender._register(send_req.buf)
        self.recv_mr = self.receiver._register(recv_req.buf,
                                               remote_write=True)

    # -- round management -------------------------------------------------

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
        while self._credit.deferred:
            self._submit(self._credit.deferred.pop(0))
            yield 0.0

    # -- sender path ------------------------------------------------------

    def pready(self, req, partition: int):
        sender = self.sender
        ucx = sender.config.ucx
        proto = ucx.protocol_for(req.partition_size)
        yield from self.worker_lock.hold()
        try:
            yield sender.software_cost(
                proto.t_send + sender.config.host.t_atomic)
            self._readied += 1
            if not self._credit.ready(req.round):
                self._credit.defer(partition)
            else:
                self._submit(partition)
        finally:
            self.worker_lock.release()
        yield from sender.engine.progress_once()

    def _submit(self, partition: int) -> None:
        """One PART_DATA channel write straight into the receive buffer."""
        req = self.send_req
        size = req.partition_size
        offset = req.buf.partition_offset(partition)
        proto = self.sender.config.ucx.protocol_for(size)
        header = Header(
            kind=MsgKind.PART_DATA, seq=make_seq(),
            sender=self.sender.rank, tag=req.tag, nbytes=size,
            ref=(self, partition))
        self.channel.submit(_PumpItem(
            header=header,
            gather=(self.send_mr.addr + offset, size, self.send_mr.lkey),
            target=(self.recv_mr.addr + offset, self.recv_mr.rkey),
            cpu_cost=0.0,
            gap=proto.gap,
            on_sent=self._on_partition_acked))

    def _on_partition_acked(self, wc=None) -> None:
        if self._retired_for(self.send_req):
            return  # stale ack into a round a newer rung owns
        self._acked += 1
        if (self._acked == self.send_req.n_partitions
                and self._readied == self.send_req.n_partitions):
            self.send_req.mark_complete()

    # -- receiver path ----------------------------------------------------

    def handle_inbound(self, process: "MPIProcess", header: Header, payload):
        ucx = process.config.ucx
        _module, partition = header.ref
        proto = ucx.protocol_for(header.nbytes)
        yield proto.t_recv
        self.recv_req.mark_arrived(partition, 1)
        if self.recv_req.all_arrived:
            self.recv_req.mark_complete()


class ChannelSpec(ModuleSpec):
    """Spec for the channels module (pass to both init calls)."""

    name = "channels"

    def create(self, cluster, send_req, recv_req):
        return ChannelModule(cluster, send_req, recv_req)
