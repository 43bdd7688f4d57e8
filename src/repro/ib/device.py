"""Device contexts: the user-space handle to one node's HCA."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ib.cq import CompletionQueue
from repro.ib.pd import ProtectionDomain
from repro.ib.qp import QueuePair

if TYPE_CHECKING:
    from repro.ib.fabric import Fabric
    from repro.ib.nic import NIC


class Context:
    """Per-process user-space device context (``ibv_context``).

    Created lazily by ``MPI_Psend_init`` / ``MPI_Precv_init`` if one
    does not exist, exactly as the paper describes (Section IV-A).
    """

    def __init__(self, fabric: "Fabric", node_id: int):
        self.fabric = fabric
        self.node_id = node_id
        self.nic: "NIC" = fabric.nic_at(node_id)

    def alloc_pd(self) -> ProtectionDomain:
        """``ibv_alloc_pd``."""
        return ProtectionDomain(self)

    def create_cq(self, capacity: int = 4096) -> CompletionQueue:
        """``ibv_create_cq``."""
        return CompletionQueue(self, capacity)

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        max_send_wr: int = 1024,
        max_recv_wr: int = 4096,
        port: int = 0,
    ) -> QueuePair:
        """``ibv_create_qp``: a fresh RC QP registered with the NIC."""
        qp = QueuePair(
            pd,
            send_cq,
            recv_cq,
            qp_num=self.nic.next_qp_num(),
            max_send_wr=max_send_wr,
            max_recv_wr=max_recv_wr,
            port=port,
        )
        self.nic.register_qp(qp)
        return qp

    def __repr__(self) -> str:
        return f"<Context node={self.node_id}>"
