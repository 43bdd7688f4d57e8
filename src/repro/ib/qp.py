"""Queue pairs: state machine, send/receive queues, posting rules."""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.errors import QPOverflowError, QPStateError
from repro.ib.constants import QP_TRANSITIONS, QPState
from repro.ib.wr import RecvWR, SendWR
from repro.sim.resources import Store

if TYPE_CHECKING:
    from repro.ib.cq import CompletionQueue
    from repro.ib.pd import ProtectionDomain


class QueuePair:
    """A simulated RC queue pair (``ibv_qp``).

    Posting rules enforced exactly as on hardware:

    * ``post_send`` requires RTS and a free SQ slot, and — for RDMA
      opcodes — fewer than ``max_outstanding_rdma`` WRs in flight
      (the ConnectX-5 limit of 16 the paper works around with
      multiple QPs);
    * ``post_recv`` is legal from INIT onward;
    * state changes must follow RESET -> INIT -> RTR -> RTS.
    """

    def __init__(
        self,
        pd: "ProtectionDomain",
        send_cq: "CompletionQueue",
        recv_cq: "CompletionQueue",
        qp_num: int,
        max_send_wr: int = 1024,
        max_recv_wr: int = 4096,
        port: int = 0,
    ):
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qp_num = qp_num
        self.max_send_wr = max_send_wr
        self.max_recv_wr = max_recv_wr
        #: NIC port (rail) this QP's traffic uses.  Both ends of a
        #: connection bind the same port index (``ibv_modify_qp``'s
        #: ``IBV_QP_PORT`` in the real API).
        self.port = port
        self.state = QPState.RESET
        #: Destination set when connected: (node_id, remote qp_num).
        self.dest_node: Optional[int] = None
        self.dest_qp_num: Optional[int] = None
        #: The NIC this QP is registered with, and the egress serializer
        #: of its port there (both set by the NIC).
        self.nic = None
        self.egress = None
        #: Send queue drained by the NIC's per-QP sender process.
        self.sq: Optional[Store] = None
        self.rq: Deque[RecvWR] = deque()
        #: RDMA WRs posted but not yet acknowledged.
        self.outstanding_rdma = 0
        #: The NIC's cap on :attr:`outstanding_rdma` (set by the NIC the
        #: QP is registered with; 16 on ConnectX-5).
        self.max_outstanding_rdma = 0
        #: WRs sitting in the SQ not yet picked up by the engine.
        self.sq_depth = 0
        #: Events waiting for an outstanding-RDMA slot to free (software
        #: flow control in the MPI layer parks here).  A list: rarely
        #: more than one, and an empty deque costs 760 bytes per QP.
        self._slot_waiters: list = []
        #: Per-QP injection rate limiter state (virtual time).
        self.next_inject_time = 0.0
        #: RC reliability attributes (``IBV_QP_RETRY_CNT`` /
        #: ``IBV_QP_RNR_RETRY`` / ``IBV_QP_TIMEOUT``).  ``None`` means
        #: "inherit the NIC config default" — resolved lazily so QPs
        #: can be re-tuned any time before a fault hits.
        self.retry_cnt: Optional[int] = None
        self.rnr_retry: Optional[int] = None
        self.timeout: Optional[int] = None
        # statistics
        self.posted_sends = 0
        self.posted_recvs = 0
        self.bytes_sent = 0

    # -- state machine ----------------------------------------------------

    def modify(self, new_state: QPState) -> None:
        """Transition the QP (``ibv_modify_qp``)."""
        if new_state not in QP_TRANSITIONS[self.state]:
            raise QPStateError(
                f"illegal QP transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state

    def to_init(self) -> None:
        self.modify(QPState.INIT)

    def to_rtr(self, dest_node: int, dest_qp_num: int) -> None:
        """Move to RTR, binding the remote endpoint."""
        self.modify(QPState.RTR)
        self.dest_node = dest_node
        self.dest_qp_num = dest_qp_num

    def to_rts(self) -> None:
        self.modify(QPState.RTS)

    def to_error(self) -> None:
        """Move to ERROR and flush both queues (``IBV_WC_WR_FLUSH_ERR``).

        As on hardware, a killed QP drains everything: pending receive
        WRs and queued (not-yet-transmitted) send WRs complete in error,
        outstanding-RDMA accounting resets, and any process parked in
        :meth:`wait_rdma_slot` is woken so nothing hangs on a dead QP.
        """
        from repro.ib.constants import WCOpcode, WCStatus
        from repro.ib.wr import WorkCompletion

        self.modify(QPState.ERROR)
        now = self.nic.env.now if self.nic is not None else 0.0
        while self.rq:
            recv_wr = self.rq.popleft()
            self.recv_cq.push(WorkCompletion(
                wr_id=recv_wr.wr_id,
                status=WCStatus.WR_FLUSH_ERR,
                opcode=WCOpcode.RECV,
                qp_num=self.qp_num,
                completed_at=now,
            ))
        if self.sq is not None:
            for send_wr in self.sq.drain():
                self.sq_depth -= 1
                self.send_cq.push(WorkCompletion(
                    wr_id=send_wr.wr_id,
                    status=WCStatus.WR_FLUSH_ERR,
                    opcode=send_wr.opcode.wc_opcode,
                    qp_num=self.qp_num,
                    completed_at=now,
                ))
        self.outstanding_rdma = 0
        waiters, self._slot_waiters = self._slot_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(None)

    # -- posting ------------------------------------------------------------

    def post_send(self, wr: SendWR) -> None:
        """Enqueue a send WR (``ibv_post_send``), validating eagerly."""
        if self.state is not QPState.RTS:
            raise QPStateError(
                f"post_send on QP {self.qp_num} in state {self.state.value}"
            )
        if self.sq_depth >= self.max_send_wr:
            raise QPOverflowError(
                f"send queue full on QP {self.qp_num} "
                f"({self.sq_depth}/{self.max_send_wr})"
            )
        is_rdma = wr.opcode.is_rdma
        if is_rdma and self.outstanding_rdma >= self.max_outstanding_rdma:
            raise QPOverflowError(
                f"QP {self.qp_num}: {self.outstanding_rdma} outstanding RDMA "
                f"WRs, hardware limit is {self.max_outstanding_rdma}"
            )
        # Validate the local list (gather source, or scatter sink for
        # reads) against this PD's MRs now, as the hardware would fault
        # on WQE processing.
        for sge in wr.sg_list:
            if sge.length == 0:
                continue
            mr = self.pd.find_mr_by_lkey(sge.lkey)
            mr.check_local(sge.addr, sge.length, sge.lkey)
        # Only an accepted post takes an outstanding-RDMA credit: one
        # rejected above must not leak a slot.
        if is_rdma:
            self.outstanding_rdma += 1
        self.sq_depth += 1
        self.posted_sends += 1
        self.bytes_sent += wr.total_length
        self.sq.push(wr)

    def post_recv(self, wr: RecvWR) -> None:
        """Enqueue a receive WR (``ibv_post_recv``)."""
        if self.state not in (QPState.INIT, QPState.RTR, QPState.RTS):
            raise QPStateError(
                f"post_recv on QP {self.qp_num} in state {self.state.value}"
            )
        if len(self.rq) >= self.max_recv_wr:
            raise QPOverflowError(f"receive queue full on QP {self.qp_num}")
        self.rq.append(wr)
        self.posted_recvs += 1

    def has_rdma_slot(self) -> bool:
        """Whether another RDMA WR may be posted right now.

        Per-message loops test ``outstanding_rdma < max_outstanding_rdma``
        themselves rather than paying a call for it.
        """
        return self.outstanding_rdma < self.max_outstanding_rdma

    def wait_rdma_slot(self):
        """Event that fires when an outstanding-RDMA slot frees.

        Fires immediately on a QP in ERROR: there is nothing left to
        wait for, and the caller's next ``post_send`` raises, which is
        how the failure surfaces instead of a hang.
        """
        from repro.sim.core import Event

        ev = Event(self.nic.env)
        if self.state is QPState.ERROR or self.has_rdma_slot():
            ev.succeed(None)
        else:
            self._slot_waiters.append(ev)
        return ev

    def notify_slot_free(self) -> None:
        """NIC side: an ACK freed a slot; wake one waiter."""
        waiters = self._slot_waiters
        while waiters and self.outstanding_rdma < self.max_outstanding_rdma:
            waiters.pop(0).succeed(None)

    def release_rdma_slot(self) -> None:
        """Return one outstanding-RDMA credit and wake a parked waiter.

        Guarded: an ACK arriving for a WR that was already flushed by
        :meth:`to_error` (which zeroes the counter) must not drive the
        count negative.
        """
        if self.outstanding_rdma > 0:
            self.outstanding_rdma -= 1
        self.notify_slot_free()

    # -- RC reliability attributes ----------------------------------------

    @property
    def effective_retry_cnt(self) -> int:
        """ACK-timeout retry budget (``IBV_QP_RETRY_CNT``)."""
        if self.retry_cnt is not None:
            return self.retry_cnt
        return self.nic.config.nic.retry_cnt

    @property
    def effective_rnr_retry(self) -> int:
        """RNR NAK retry budget; 7 means retry forever (IB spec)."""
        if self.rnr_retry is not None:
            return self.rnr_retry
        return self.nic.config.nic.rnr_retry

    @property
    def ack_timeout(self) -> float:
        """Seconds before an unacknowledged WR retransmits.

        IB encodes the local ACK timeout as an exponent:
        ``4.096 us * 2**timeout``.
        """
        if self.timeout is not None:
            return 4.096e-6 * (1 << self.timeout)
        return self.nic.config.nic.ack_timeout

    def consume_recv(self) -> RecvWR:
        """Pop the oldest RQ entry (NIC side, on inbound message)."""
        if not self.rq:
            raise QPStateError(
                f"receiver-not-ready: QP {self.qp_num} has an empty receive "
                "queue for an inbound message that consumes one"
            )
        return self.rq.popleft()

    def __repr__(self) -> str:
        return (
            f"<QP {self.qp_num} {self.state.value} "
            f"dest={self.dest_node}/{self.dest_qp_num} "
            f"outstanding={self.outstanding_rdma}>"
        )
