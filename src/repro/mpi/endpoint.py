"""UCX-like transport endpoints: the baseline software path.

A :class:`Channel` is one *direction* of a process pair's connection: a
QP on each side, a receive ring for eager data, and a sender-side pump
process that serializes message injections (``msg_gap`` apart — the
LogGP ``g`` as seen through MPI, which is what aggregation amortizes).

Protocols, per UCX 1.12 on this class of hardware (Section V-B2):

* ``eager/bcopy`` (<= 1 KiB): staging copy at the sender, data lands in
  the receiver's ring, copied out at match time;
* ``eager/zcopy`` (<= 8 KiB): sent from the user buffer, still lands in
  the ring;
* ``rendezvous`` (larger): RTS header -> receiver matches and replies
  CTS -> sender RDMA-writes straight into the posted receive buffer.
  Both handshake halves need the respective side's progress engine to
  run — the dependency that shapes the baseline's behaviour when
  threads are busy computing.

Wire headers: real UCX prepends a tag/length header to each message.
Here each message carries a 32-bit sequence number as RDMA immediate
data and the rest of the header rides out-of-band in the receiving
process's header table (its bytes are accounted by ``HEADER_BYTES``
added to the wire size).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.engine import Rail, RailPolicy, ReplayTracker, reconnect_walk, restock
from repro.errors import MPIError
from repro.ib.constants import ACCESS_LOCAL, ACCESS_REMOTE_WRITE, Opcode, QPState
from repro.ib.wr import ANON_RECV, SGE, SendWR
from repro.mem.buffer import Buffer
from repro.sim.resources import Store
from repro.units import KiB

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess

#: Bytes of tag/len header accounted on every wire message.
HEADER_BYTES = 32

#: Ring size per channel direction (eager messages only; rendezvous
#: bypasses the ring, so this never needs to cover large transfers).
RING_BYTES = 4 * 1024 * KiB

#: Receive-queue prestock per channel QP.  Replenished one-for-one as
#: messages are handled; 64 comfortably covers the sender's in-flight
#: budget (16 outstanding RDMA WRs plus pump/poller slack).
_RQ_PRESTOCK = 64
_PRESTOCK = (ANON_RECV,) * _RQ_PRESTOCK

_seq_counter = itertools.count(1)
_HEADER_ONLY = [SGE(0, 0, 0)]   # nothing writes a WR's gather list
_wrid_counter = itertools.count(1)


class MsgKind(enum.Enum):
    EAGER = "eager"
    RNDV_RTS = "rndv-rts"
    RNDV_CTS = "rndv-cts"
    RNDV_DATA = "rndv-data"
    PART_DATA = "part-data"     # persist-module partition payload
    PART_RTS = "part-rts"       # persist-module rendezvous handshake
    PART_ATS = "part-ats"       # persist-module ack-to-sender after get


@dataclass(slots=True)
class Header:
    """Out-of-band message header (bytes accounted as HEADER_BYTES)."""

    kind: MsgKind
    seq: int
    sender: int
    tag: int = 0
    nbytes: int = 0
    #: Free-form reference: request ids, partition ranges, CTS targets.
    ref: Any = None
    #: Ring offset for eager payloads.
    ring_offset: int = 0


@dataclass(slots=True)
class _PumpItem:
    """One message handed to the channel pump."""

    header: Header
    #: Gather list (one SGE), or None for header-only.
    gather: Optional[list[SGE]]
    #: RDMA target (addr, rkey); for eager, filled by the pump (ring).
    target: Optional[tuple[int, int]]
    #: CPU cost charged by the pump before posting.
    cpu_cost: float
    #: Minimum spacing to the next injection (protocol-tier gap).
    gap: float = 0.0
    #: Callback fired with the WC when the send completes (acked).
    on_sent: Any = None
    #: Callback fired with the WC if the send fails terminally (retry
    #: exhaustion or flush); None means the channel resubmits the item
    #: itself after reconnecting.
    on_error: Any = None
    #: True for eager payloads that go through the ring.
    to_ring: bool = False


class Channel:
    """One direction of a connected process pair (src sends to dst)."""

    def __init__(self, src: "MPIProcess", dst: "MPIProcess"):
        from repro.ib import verbs

        self.src = src
        self.dst = dst
        self.env = src.env
        cfg = src.config
        # Lanes: QP pairs; control and eager traffic keeps ordering on
        # lane 0, bulk (rendezvous-sized) payloads stripe round-robin
        # so large transfers reach full line rate (UCX multi-path).
        self.src_qps = []
        self.dst_qps = []
        # +1: a dedicated control lane so RTS/CTS headers never queue
        # behind bulk data on the same QP (they still share the wire,
        # at chunk granularity).
        for _ in range(cfg.ucx.n_lanes + 1):
            sqp = src.ib.create_qp(src.p2p_pd, src.p2p_cq, src.p2p_cq)
            dqp = dst.ib.create_qp(dst.p2p_pd, dst.p2p_cq, dst.p2p_cq)
            verbs.connect_qps(sqp, dqp)
            # Pre-stock the destination RQ, as one chain; replenished
            # one-for-one per inbound message by the p2p poller, so a
            # modest depth (matching the 16-outstanding sender budget plus
            # slack) suffices and channel setup stays cheap.
            dqp.post_recv(*_PRESTOCK)
            self.src_qps.append(sqp)
            self.dst_qps.append(dqp)
        self.ctrl_qp = self.src_qps[-1]
        #: Bulk (rendezvous-sized) payloads stripe round-robin over the
        #: data lanes (UCX multi-path).
        self.bulk_rail = Rail(self.src_qps[: cfg.ucx.n_lanes],
                              RailPolicy.ROUND_ROBIN)
        # Receive ring at the destination for eager payloads.
        self.ring = Buffer(RING_BYTES, backed=cfg.real_buffers)
        self.ring_mr = dst.p2p_pd.reg_mr(
            self.ring, ACCESS_LOCAL | ACCESS_REMOTE_WRITE)
        self._ring_head = 0
        #: The pump's FIFO.  Senders ``queue.hand_off(item)`` last, with
        #: their own bookkeeping done: an idle pump takes the item inside
        #: that call, its CPU, gap and flow-control waits starting now.
        self.queue = Store(self.env)
        self.env.process(self._pump())
        # Fault recovery: dead items queue on the tracker and resubmit
        # through the pump after the reconnect walk.
        self._tracker = ReplayTracker(
            self.env, src.cluster.fabric, cfg.part.reconnect_delay,
            counter="mpi.p2p_resubmits")
        self._tracker.bind(
            recover_walk=self._recover_walk,
            restock=lambda: None,       # folded into the lane walk
            on_dropped=lambda item: (item,),
            can_replay=lambda item: True,  # the pump re-checks QP state
            replay_unit=self._resubmit)

    # -- sender API ---------------------------------------------------------

    def alloc_ring(self, nbytes: int) -> int:
        """Allocate ring space for an eager payload (sender-owned head)."""
        if nbytes > RING_BYTES:
            raise MPIError(f"eager message of {nbytes}B exceeds ring")
        if self._ring_head + nbytes > RING_BYTES:
            self._ring_head = 0
        offset = self._ring_head
        self._ring_head += nbytes
        return offset

    # -- the pump -------------------------------------------------------------

    def _pump(self):
        """Serialize sends: protocol CPU, injection gap, flow control."""
        env = self.env
        ucx = self.src.config.ucx
        queue = self.queue
        router = self.src.router
        # Header bytes ride in front of the payload on the wire; their
        # serialization is folded into the injection gap.
        header_gap = HEADER_BYTES / self.src.config.nic.line_rate
        next_send = 0.0
        while True:
            if queue.items:
                item: _PumpItem = queue.items.pop(0)
            else:
                yield queue.get()
                item, queue.handed = queue.handed, None
            if item.cpu_cost > 0:
                yield item.cpu_cost
            if env._now < next_send:
                yield next_send - env._now
            header = item.header
            # Bulk payloads stripe across data lanes; eager traffic
            # stays ordered on lane 0; header-only control messages get
            # their own lane so they never wait behind bulk chunks.
            if item.gather is None:
                qp = self.ctrl_qp
            elif header.nbytes > ucx.eager_zcopy_max:
                qp = self.bulk_rail.select()
            else:
                qp = self.src_qps[0]
            # Software flow control against the 16-outstanding limit.
            while qp.outstanding_rdma >= qp.max_outstanding_rdma:
                yield qp.wait_rdma_slot()
            if qp.state is not QPState.RTS:
                # Channel failure mid-stream (wait_rdma_slot wakes
                # the process at once on an ERROR QP): park the item for the
                # reconnect walk instead of posting into a dead QP.
                self.note_failure(item)
                continue
            if item.to_ring:
                offset = self.alloc_ring(max(1, header.nbytes))
                header.ring_offset = offset
                target = (self.ring_mr.addr + offset, self.ring_mr.rkey)
            else:
                target = item.target if item.target else (0, 0)
            wr_id = next(_wrid_counter)
            self.dst._inbound_headers[header.seq] = header
            if item.on_sent is not None:
                router.successes[wr_id] = item.on_sent
            # Failure routing: entries live from post to ACK so a WR
            # that dies — with an error CQE or with its QP — can be
            # traced back to its message and replayed exactly once.
            router.failures[wr_id] = (self, item, qp)
            # (wr_id, opcode, sg_list, remote_addr, rkey, imm_data,
            # signaled): positional, once per message.
            qp.post_send(SendWR(
                wr_id, Opcode.RDMA_WRITE_WITH_IMM, item.gather or _HEADER_ONLY,
                target[0], target[1], header.seq & 0xFFFFFFFF, True))
            next_send = env._now + max(item.gap, header_gap)

    # -- fault recovery -----------------------------------------------------

    def note_failure(self, item: _PumpItem) -> None:
        """Park a dead message and kick the reconnect process once."""
        self._tracker.queue([item])
        self._tracker.kick()

    def _recover_walk(self):
        """Walk failed lanes back to RTS; sweep their vanished WRs.

        The reconnect delay (charged by the tracker) is far longer than
        the ACK window, so by the sweep every in-flight completion has
        landed: whatever is still registered against a failed lane died
        without a CQE and queues for resubmission here, exactly once.
        The walk, sweep, and resubmits are all yield-free, so the pump
        cannot interleave and double-post.
        """
        fixed = reconnect_walk(
            ((sqp, sqp, dqp) for sqp, dqp in zip(self.src_qps, self.dst_qps)),
            on_fixed=lambda _tok, _sqp, dqp: restock(dqp, _RQ_PRESTOCK))
        for entry in self.src.router.sweep_failures(
                lambda e: e[0] is self and e[2] in fixed):
            self._tracker.queue([entry[1]])
        return fixed

    def _resubmit(self, item: _PumpItem):
        # Through the queue, not in place: the replay drain must finish
        # before the pump looks at any QP's state again.
        self.queue.push(item)
        return
        yield  # pragma: no cover - generator protocol

    def close(self) -> None:
        """Drop the replay tracker, whose recovery hooks are this
        channel's own methods."""
        self._tracker = None


def make_seq() -> int:
    return next(_seq_counter)


def ring_payload(channel: Channel, header: Header) -> Optional[np.ndarray]:
    """Read an eager payload out of the channel ring (None if phantom)."""
    return channel.ring.read(header.ring_offset, header.nbytes)
