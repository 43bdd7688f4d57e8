"""Work requests, scatter/gather elements, and work completions.

These are the highest-churn records in the simulator — one
:class:`SendWR`/:class:`RecvWR` pair plus one or two
:class:`WorkCompletion` per message — so they are hand-rolled
``__slots__`` classes rather than dataclasses: no ``__dict__`` per
instance, no generated ``__init__`` indirection, just attribute stores.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ib.constants import Opcode, WCOpcode, WCStatus


class SGE:
    """A scatter/gather element: one contiguous local range.

    Attributes
    ----------
    addr:
        Start virtual address inside a registered MR.
    length:
        Bytes.
    lkey:
        Local key of the MR covering the range.
    """

    __slots__ = ("addr", "length", "lkey")

    def __init__(self, addr: int, length: int, lkey: int):
        if length < 0:
            raise ValueError(f"SGE length must be >= 0, got {length}")
        self.addr = addr
        self.length = length
        self.lkey = lkey

    def __repr__(self) -> str:
        return f"SGE(addr={self.addr}, length={self.length}, lkey={self.lkey})"


class SendWR:
    """A send-queue work request (``ibv_send_wr``).

    For RDMA write opcodes, ``remote_addr``/``rkey`` name the target
    range; ``imm_data`` rides along for ``*_WITH_IMM`` opcodes and is
    delivered in the remote completion.
    """

    __slots__ = ("wr_id", "opcode", "sg_list", "remote_addr", "rkey",
                 "imm_data", "signaled", "total_length")

    def __init__(self, wr_id: int, opcode: Opcode, sg_list: Sequence[SGE],
                 remote_addr: int = 0, rkey: int = 0,
                 imm_data: Optional[int] = None, signaled: bool = True):
        if opcode.has_immediate:
            if imm_data is None:
                raise ValueError(f"{opcode} requires imm_data")
            if not (0 <= imm_data < 2**32):
                raise ValueError(
                    f"imm_data must fit __be32, got {imm_data:#x}"
                )
        if not sg_list:
            raise ValueError("sg_list must contain at least one SGE")
        self.wr_id = wr_id
        self.opcode = opcode
        self.sg_list = sg_list
        self.remote_addr = remote_addr
        self.rkey = rkey
        self.imm_data = imm_data
        #: Request a completion on the sender CQ when done.
        self.signaled = signaled
        #: Total bytes named by the gather list (summed once: the list
        #: is fixed at construction and this is read three times per WR).
        total = 0
        for sge in sg_list:
            total += sge.length
        self.total_length = total

    def __repr__(self) -> str:
        return (f"SendWR(wr_id={self.wr_id}, opcode={self.opcode}, "
                f"nbytes={self.total_length})")


class RecvWR:
    """A receive-queue work request (``ibv_recv_wr``).

    For RDMA-write-with-immediate traffic the receive buffer is not
    used for payload (data lands at the sender-specified remote
    address); the entry exists to absorb the immediate and produce the
    receive completion, so an empty ``sg_list`` is legal — exactly how
    the paper's module posts its receives in ``MPI_Start``.
    """

    __slots__ = ("wr_id", "sg_list")

    def __init__(self, wr_id: int, sg_list: Sequence[SGE] = ()):
        self.wr_id = wr_id
        self.sg_list = sg_list

    def __repr__(self) -> str:
        return f"RecvWR(wr_id={self.wr_id}, sges={len(self.sg_list)})"


#: The anonymous receive (wr_id 0, no scatter list) the p2p channels
#: stock their receive queues with.  Nothing writes a posted receive,
#: so one instance serves every post.
ANON_RECV = RecvWR(wr_id=0)


class WorkCompletion:
    """A completion queue entry (``ibv_wc``)."""

    __slots__ = ("wr_id", "status", "ok", "opcode", "qp_num", "byte_len",
                 "imm_data", "completed_at")

    def __init__(self, wr_id: int, status: WCStatus, opcode: WCOpcode,
                 qp_num: int, byte_len: int = 0,
                 imm_data: Optional[int] = None, completed_at: float = 0.0):
        self.wr_id = wr_id
        self.status = status
        #: ``status is SUCCESS``, decided once: every poller reads it.
        self.ok = status is WCStatus.SUCCESS
        self.opcode = opcode
        self.qp_num = qp_num
        self.byte_len = byte_len
        self.imm_data = imm_data
        #: Virtual time the completion was placed on the CQ.
        self.completed_at = completed_at

    def require_success(self) -> "WorkCompletion":
        """Return self, raising CompletionError on failure status."""
        if not self.ok:
            from repro.errors import CompletionError

            raise CompletionError(
                f"work completion failed: wr_id={self.wr_id} status={self.status}"
            )
        return self

    def __repr__(self) -> str:
        return (f"WorkCompletion(wr_id={self.wr_id}, "
                f"status={self.status}, opcode={self.opcode}, "
                f"qp_num={self.qp_num}, byte_len={self.byte_len})")
