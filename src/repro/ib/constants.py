"""Enumerations mirroring the verbs C API."""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """Send work-request opcodes (subset used by the paper's design).

    Every member carries the four flags below as plain attributes, set
    once from the opcode sets at the end of this module: they are read
    several times per WR, and a property would be a call each time.
    """

    RDMA_WRITE = "IBV_WR_RDMA_WRITE"
    RDMA_WRITE_WITH_IMM = "IBV_WR_RDMA_WRITE_WITH_IMM"
    RDMA_READ = "IBV_WR_RDMA_READ"
    SEND = "IBV_WR_SEND"
    SEND_WITH_IMM = "IBV_WR_SEND_WITH_IMM"

    #: The WR carries ``imm_data`` (``*_WITH_IMM``).
    has_immediate: bool
    #: The remote side consumes an RQ entry for this opcode.
    consumes_recv_wr: bool
    #: Counts toward the outstanding-RDMA-WR hardware limit.
    is_rdma: bool
    #: The sender-side completion opcode this WR produces.
    wc_opcode: "WCOpcode"


class QPState(enum.Enum):
    """Queue pair state machine (RESET -> INIT -> RTR -> RTS)."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"    # ready to receive
    RTS = "RTS"    # ready to send
    ERROR = "ERROR"


#: Legal QP state transitions.
QP_TRANSITIONS: dict[QPState, frozenset[QPState]] = {
    QPState.RESET: frozenset({QPState.INIT, QPState.ERROR}),
    QPState.INIT: frozenset({QPState.RTR, QPState.RESET, QPState.ERROR}),
    QPState.RTR: frozenset({QPState.RTS, QPState.RESET, QPState.ERROR}),
    QPState.RTS: frozenset({QPState.RESET, QPState.ERROR}),
    QPState.ERROR: frozenset({QPState.RESET}),
}


class WCStatus(enum.Enum):
    """Work completion status codes (subset)."""

    SUCCESS = "IBV_WC_SUCCESS"
    LOC_PROT_ERR = "IBV_WC_LOC_PROT_ERR"
    REM_ACCESS_ERR = "IBV_WC_REM_ACCESS_ERR"
    RETRY_EXC_ERR = "IBV_WC_RETRY_EXC_ERR"
    RNR_RETRY_EXC_ERR = "IBV_WC_RNR_RETRY_EXC_ERR"
    WR_FLUSH_ERR = "IBV_WC_WR_FLUSH_ERR"


class WCOpcode(enum.Enum):
    """Work completion opcodes."""

    RDMA_WRITE = "IBV_WC_RDMA_WRITE"
    RDMA_READ = "IBV_WC_RDMA_READ"
    SEND = "IBV_WC_SEND"
    RECV = "IBV_WC_RECV"
    RECV_RDMA_WITH_IMM = "IBV_WC_RECV_RDMA_WITH_IMM"


_IMMEDIATE = frozenset({Opcode.RDMA_WRITE_WITH_IMM, Opcode.SEND_WITH_IMM})
_CONSUMES_RECV_WR = frozenset(
    {Opcode.RDMA_WRITE_WITH_IMM, Opcode.SEND, Opcode.SEND_WITH_IMM})
_RDMA = frozenset(
    {Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM, Opcode.RDMA_READ})

for _op in Opcode:
    _op.has_immediate = _op in _IMMEDIATE
    _op.consumes_recv_wr = _op in _CONSUMES_RECV_WR
    _op.is_rdma = _op in _RDMA
    _op.wc_opcode = (WCOpcode.RDMA_READ if _op is Opcode.RDMA_READ
                     else WCOpcode.RDMA_WRITE if _op.is_rdma
                     else WCOpcode.SEND)
del _op


#: Access flag bits for memory registration.
ACCESS_LOCAL: int = 0x1
ACCESS_REMOTE_WRITE: int = 0x2
ACCESS_REMOTE_READ: int = 0x4

#: Wire-chunk outcomes: what :meth:`repro.faults.FaultInjector.chunk_outcome`
#: returns and the NIC tests with ``is``.
CHUNK_OK = "ok"
CHUNK_LOST = "lost"
CHUNK_CORRUPT = "corrupt"
