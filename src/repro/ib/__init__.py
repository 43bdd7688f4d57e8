"""Simulated InfiniBand verbs substrate.

Object model mirroring user-space verbs: a :class:`~repro.ib.device.Context`
per HCA, :class:`~repro.ib.pd.ProtectionDomain`\\ s encapsulating
:class:`~repro.ib.mr.MemoryRegion`\\ s and :class:`~repro.ib.qp.QueuePair`\\ s,
:class:`~repro.ib.cq.CompletionQueue`\\ s outside the PD, and work
requests posted with :func:`~repro.ib.verbs.ibv_post_send` producing
work completions polled with :func:`~repro.ib.verbs.ibv_poll_cq` —
exactly the surface the paper maps MPI Partitioned onto (Section II-B,
IV-A).

Timing comes from the NIC/wire model in :mod:`repro.ib.nic` and
:mod:`repro.ib.link`; see :mod:`repro.config` for the calibration.
"""

from repro.ib.constants import Opcode, QPState, WCStatus, WCOpcode, ACCESS_LOCAL, ACCESS_REMOTE_WRITE
from repro.ib.device import Context
from repro.ib.pd import ProtectionDomain
from repro.ib.mr import MemoryRegion
from repro.ib.cq import CompletionQueue
from repro.ib.qp import QueuePair
from repro.ib.wr import SGE, SendWR, RecvWR, WorkCompletion
from repro.ib.fabric import Fabric
from repro.ib import verbs

__all__ = [
    "Opcode",
    "QPState",
    "WCStatus",
    "WCOpcode",
    "ACCESS_LOCAL",
    "ACCESS_REMOTE_WRITE",
    "Context",
    "ProtectionDomain",
    "MemoryRegion",
    "CompletionQueue",
    "QueuePair",
    "SGE",
    "SendWR",
    "RecvWR",
    "WorkCompletion",
    "Fabric",
    "verbs",
]
