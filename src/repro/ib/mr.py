"""Memory regions: registered buffers the NIC may access."""

from __future__ import annotations

import itertools

from repro.errors import ProtectionError
from repro.ib.constants import ACCESS_LOCAL, ACCESS_REMOTE_READ, ACCESS_REMOTE_WRITE
from repro.mem.buffer import Buffer

_key_counter = itertools.count(0x1000)


class MemoryRegion:
    """A registered range of host memory (``ibv_mr``).

    Registration pins the buffer and yields a local key (``lkey``) for
    gather/scatter elements and a remote key (``rkey``) remote peers
    must present for RDMA access.
    """

    def __init__(self, buffer: Buffer, access: int = ACCESS_LOCAL):
        self.buffer = buffer
        self.access = access
        self.lkey: int = next(_key_counter)
        self.rkey: int = next(_key_counter)
        self.addr: int = buffer.addr
        self.length: int = buffer.nbytes
        #: One past the last address: an access ``[addr, addr + length)``
        #: is inside iff ``addr >= self.addr and addr + length <= end``.
        self.end: int = self.addr + self.length
        #: False once deregistered; every access check reads it.
        self.valid = True

    def deregister(self) -> None:
        """Invalidate the region (``ibv_dereg_mr``)."""
        self.valid = False

    def check_local(self, addr: int, length: int, lkey: int) -> None:
        """Validate a local (gather) access."""
        if not self.valid:
            raise ProtectionError("access through deregistered MR")
        if lkey != self.lkey:
            raise ProtectionError(f"bad lkey {lkey:#x} (expected {self.lkey:#x})")
        if addr < self.addr or addr + length > self.end:
            raise ProtectionError(
                f"local access [{addr:#x}, +{length}) outside MR "
                f"[{self.addr:#x}, +{self.length})"
            )

    def check_remote_write(self, addr: int, length: int, rkey: int) -> None:
        """Validate an inbound RDMA write."""
        if not self.valid:
            raise ProtectionError("remote access through deregistered MR")
        if rkey != self.rkey:
            raise ProtectionError(f"bad rkey {rkey:#x} (expected {self.rkey:#x})")
        if not (self.access & ACCESS_REMOTE_WRITE):
            raise ProtectionError("MR not registered for remote write")
        if addr < self.addr or addr + length > self.end:
            raise ProtectionError(
                f"remote write [{addr:#x}, +{length}) outside MR "
                f"[{self.addr:#x}, +{self.length})"
            )

    def check_remote_read(self, addr: int, length: int, rkey: int) -> None:
        """Validate an inbound RDMA read (the responder side)."""
        if not self.valid:
            raise ProtectionError("remote access through deregistered MR")
        if rkey != self.rkey:
            raise ProtectionError(f"bad rkey {rkey:#x} (expected {self.rkey:#x})")
        if not (self.access & ACCESS_REMOTE_READ):
            raise ProtectionError("MR not registered for remote read")
        if addr < self.addr or addr + length > self.end:
            raise ProtectionError(
                f"remote read [{addr:#x}, +{length}) outside MR "
                f"[{self.addr:#x}, +{self.length})"
            )

    def __repr__(self) -> str:
        return f"<MR lkey={self.lkey:#x} rkey={self.rkey:#x} {self.length}B>"
