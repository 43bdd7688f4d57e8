"""Rails: ordered QP sets with a scheduling policy.

A *rail* is the unit every transport issues WRs through: an ordered
set of connected QPs plus a policy for picking one per work unit.

* ``STRIPED`` — deterministic ``key % n``; the native module's
  group-to-QP mapping (WRs for a transport group always use the same
  QP, preserving per-group ordering).
* ``ROUND_ROBIN`` — advance on every selection; the persist module's
  read rails and the channel's bulk lanes (UCX multi-path striping).

Multi-rail (multi-NIC-port) configurations build one rail per port
(:func:`build_rails`); with ``NICConfig.n_ports == 1`` this collapses
to exactly the QP set the single-port code created, in the same
creation order, so single-rail timing is bit-identical.
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional


class RailPolicy(enum.Enum):
    STRIPED = "striped"
    ROUND_ROBIN = "round-robin"


class Rail:
    """An ordered QP set with a selection policy."""

    def __init__(self, qps: Iterable, policy: RailPolicy = RailPolicy.STRIPED):
        self.qps = list(qps)
        if not self.qps:
            raise ValueError("a rail needs at least one QP")
        self.policy = policy
        self._rr = 0

    def __len__(self) -> int:
        return len(self.qps)

    def __iter__(self):
        return iter(self.qps)

    def __getitem__(self, idx: int):
        return self.qps[idx]

    def select(self, key: Optional[int] = None):
        """Pick the QP for one work unit (advances round-robin state)."""
        if self.policy is RailPolicy.STRIPED:
            if key is None:
                raise ValueError("a striped rail needs a stripe key")
            return self.qps[key % len(self.qps)]
        qp = self.qps[self._rr]
        self._rr = (self._rr + 1) % len(self.qps)
        return qp

    def peek(self, key: Optional[int] = None):
        """The QP :meth:`select` would pick, without advancing state.

        Replay drains use this to test whether a unit's path is back at
        RTS before committing to the selection.
        """
        if self.policy is RailPolicy.STRIPED:
            if key is None:
                raise ValueError("a striped rail needs a stripe key")
            return self.qps[key % len(self.qps)]
        return self.qps[self._rr]

    def acquire(self, key: Optional[int] = None):
        """Select a QP and park until it has an outstanding-RDMA slot;
        yields, returns the QP.

        Software flow control against the 16-outstanding hardware
        limit.  The returned QP may be in ERROR (``wait_rdma_slot``
        wakes the process at once on a dead QP so nothing hangs): callers check
        RTS and route to recovery, exactly as the inlined loops did.
        """
        qp = self.select(key)
        while qp.outstanding_rdma >= qp.max_outstanding_rdma:
            yield qp.wait_rdma_slot()
        return qp

    def __repr__(self) -> str:
        return f"<Rail {self.policy.value} qps={len(self.qps)}>"


def build_rails(send_ctx, recv_ctx, send_pd, recv_pd, send_cq, recv_cq,
                n_qps: int, n_ports: int,
                policy: RailPolicy = RailPolicy.STRIPED):
    """Create and connect ``n_ports`` rails of ``n_qps`` QP pairs each.

    Returns ``(send_rails, recv_rails)``.  Both ends of each pair bind
    the same NIC port, so a rail's traffic stays on one wire.  QP
    creation and connection order matches the historical single-port
    loop (send, recv, connect — per pair), keeping QP numbering and
    therefore event ordering identical for ``n_ports == 1``.
    """
    from repro.ib import verbs

    send_rails, recv_rails = [], []
    for port in range(n_ports):
        send_qps, recv_qps = [], []
        for _ in range(n_qps):
            qp_s = send_ctx.create_qp(send_pd, send_cq, send_cq, port=port)
            qp_r = recv_ctx.create_qp(recv_pd, recv_cq, recv_cq, port=port)
            verbs.connect_qps(qp_s, qp_r)
            send_qps.append(qp_s)
            recv_qps.append(qp_r)
        send_rails.append(Rail(send_qps, policy))
        recv_rails.append(Rail(recv_qps, policy))
    return send_rails, recv_rails
