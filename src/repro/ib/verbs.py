"""Functional ``ibv_*`` facade over the object model.

For readers coming from the C verbs API: these free functions mirror
the calls the paper names, delegating to the simulated objects.  The
MPI module uses the object API directly; this facade exists for
examples and for 1:1 traceability to Section IV-A.
"""

from __future__ import annotations

from repro.ib.constants import ACCESS_LOCAL
from repro.ib.cq import CompletionQueue
from repro.ib.device import Context
from repro.ib.fabric import Fabric
from repro.ib.mr import MemoryRegion
from repro.ib.pd import ProtectionDomain
from repro.ib.qp import QueuePair
from repro.ib.wr import RecvWR, SendWR, WorkCompletion
from repro.mem.buffer import Buffer


def ibv_open_device(fabric: Fabric, node_id: int) -> Context:
    """Open the device on ``node_id`` (``ibv_open_device``)."""
    return Context(fabric, node_id)


def ibv_alloc_pd(context: Context) -> ProtectionDomain:
    """``ibv_alloc_pd``."""
    return context.alloc_pd()


def ibv_reg_mr(pd: ProtectionDomain, buffer: Buffer,
               access: int = ACCESS_LOCAL) -> MemoryRegion:
    """``ibv_reg_mr``."""
    return pd.reg_mr(buffer, access)


def ibv_dereg_mr(mr: MemoryRegion) -> None:
    """``ibv_dereg_mr``."""
    mr.deregister()


def ibv_create_cq(context: Context, capacity: int = 4096) -> CompletionQueue:
    """``ibv_create_cq``."""
    return context.create_cq(capacity)


def ibv_create_qp(context: Context, pd: ProtectionDomain,
                  send_cq: CompletionQueue, recv_cq: CompletionQueue,
                  max_send_wr: int = 1024,
                  max_recv_wr: int = 4096,
                  port: int = 0) -> QueuePair:
    """``ibv_create_qp``."""
    return context.create_qp(pd, send_cq, recv_cq, max_send_wr, max_recv_wr,
                             port)


def connect_qps(local: QueuePair, remote: QueuePair) -> None:
    """Out-of-band QP exchange: drive both QPs to RTS.

    Stands in for the paper's asynchronous QP-number exchange plus the
    INIT -> RTR -> RTS modify sequence on both ends.
    """
    local.to_init()
    remote.to_init()
    local.to_rtr(remote.nic.node_id, remote.qp_num)
    remote.to_rtr(local.nic.node_id, local.qp_num)
    local.to_rts()
    remote.to_rts()


def reconnect_qps(local: QueuePair, remote: QueuePair) -> None:
    """Recover a failed connection: both QPs walk back to RTS.

    Mirrors what a real transport-recovery layer does after a fatal
    completion: ``ibv_modify_qp`` each end through
    RESET -> INIT -> RTR -> RTS, preserving QP numbers so registered
    memory and the peer addressing stay valid.  Queues are empty by
    this point (the ERROR transition flushed them); the caller re-posts
    receives and replays unacknowledged sends.
    """
    from repro.ib.constants import QPState

    for qp in (local, remote):
        if qp.state is not QPState.RESET:
            qp.modify(QPState.RESET)
    connect_qps(local, remote)
    if local.nic is not None:
        local.nic.fabric.counters.inc("ib.reconnects")


def ibv_post_send(qp: QueuePair, wr: SendWR) -> None:
    """``ibv_post_send``."""
    qp.post_send(wr)


def ibv_post_recv(qp: QueuePair, wr: RecvWR) -> None:
    """``ibv_post_recv``."""
    qp.post_recv(wr)


def ibv_poll_cq(cq: CompletionQueue, max_entries: int = 1) -> list[WorkCompletion]:
    """``ibv_poll_cq``."""
    return cq.poll(max_entries)
