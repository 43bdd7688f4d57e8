"""Message buffers with optional real numpy backing.

A :class:`Buffer` stands for a contiguous range of host memory that the
simulated NIC can DMA into or out of.  With ``backed=True`` it carries a
real ``numpy.uint8`` array, so tests can assert that RDMA writes place
the right bytes at the right offsets.  With ``backed=False`` (used by
large-scale benchmarks) only sizes and offsets are tracked and data
operations are no-ops — the timing model is identical either way.

:class:`PartitionedBuffer` adds the user-partition view of MPI
Partitioned: ``n`` equal partitions addressable by index, as registered
by ``MPI_Psend_init`` / ``MPI_Precv_init``.
"""

from __future__ import annotations

import mmap
from typing import Optional

import numpy as np

from repro.errors import ConfigError, PartitionError, ProtectionError
from repro.units import KiB

#: Backed buffers of at least this size are their own anonymous mapping
#: instead of a heap block.  It is glibc's *initial* mmap threshold,
#: which the allocator raises (up to 32 MiB) the first time a mapped
#: block is freed; from then on a 4 MiB endpoint ring is carved from
#: recycled heap, zero-filled by hand and so resident in full whether
#: or not it is ever touched, and the process's peak RSS depends on
#: what happened to be freed earlier (docs/PERF.md §3).  A mapping of
#: our own is zero pages on demand every time, and returns them when
#: the buffer is dropped.
MAP_BYTES = 128 * KiB


def _zeroed(nbytes: int) -> np.ndarray:
    """``nbytes`` writable zero bytes."""
    if nbytes < MAP_BYTES:
        return np.zeros(nbytes, dtype=np.uint8)
    # ACCESS_COPY: private to this process like the heap block it
    # replaces (the default anonymous mapping is shared across fork).
    return np.frombuffer(mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY),
                         dtype=np.uint8)


class Buffer:
    """A contiguous byte range in (simulated) host memory."""

    _next_addr = 0x1000_0000  # fake virtual addresses, never overlapping

    def __init__(self, nbytes: int, backed: bool = True, fill: Optional[int] = None):
        if nbytes <= 0:
            raise ValueError(f"buffer size must be positive, got {nbytes}")
        self.nbytes = int(nbytes)
        #: Fake base virtual address (unique per buffer).
        self.addr = Buffer._next_addr
        Buffer._next_addr += self.nbytes + 0x1000
        self._data: Optional[np.ndarray] = None
        if backed:
            self._data = _zeroed(self.nbytes)
            if fill is not None:
                self._data[:] = fill

    @property
    def backed(self) -> bool:
        """Whether this buffer carries real bytes."""
        return self._data is not None

    @property
    def data(self) -> np.ndarray:
        """The backing array (raises if unbacked)."""
        if self._data is None:
            raise ProtectionError("buffer is not backed by real memory")
        return self._data

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.nbytes:
            raise ProtectionError(
                f"access [{offset}, {offset + length}) outside buffer of {self.nbytes}B"
            )

    def read(self, offset: int, length: int) -> Optional[np.ndarray]:
        """A view of ``length`` bytes at ``offset`` (None if unbacked)."""
        self._check_range(offset, length)
        if self._data is None:
            return None
        return self._data[offset : offset + length]

    def write(self, offset: int, payload: Optional[np.ndarray]) -> None:
        """Copy ``payload`` into the buffer at ``offset``.

        A ``None`` payload (from an unbacked source) only range-checks.
        """
        if payload is None:
            return
        self._check_range(offset, len(payload))
        if self._data is not None:
            self._data[offset : offset + len(payload)] = payload

    def fill_pattern(self, seed: int = 0) -> None:
        """Fill with a deterministic byte pattern (test helper)."""
        if self._data is not None:
            idx = np.arange(self.nbytes, dtype=np.uint64)
            self._data[:] = ((idx * 131 + seed * 7 + 13) % 251).astype(np.uint8)

    def expected_pattern(self, offset: int, length: int, seed: int = 0) -> np.ndarray:
        """What :meth:`fill_pattern` would have produced for a range."""
        idx = np.arange(offset, offset + length, dtype=np.uint64)
        return ((idx * 131 + seed * 7 + 13) % 251).astype(np.uint8)

    def __repr__(self) -> str:
        kind = "backed" if self.backed else "phantom"
        return f"<Buffer {self.nbytes}B {kind} @ {self.addr:#x}>"


def partition_size_of(total_bytes: int, n_partitions: int) -> int:
    """Bytes per partition when ``total_bytes`` splits evenly, else raises."""
    if n_partitions < 1:
        raise ConfigError(f"need at least one partition, got {n_partitions}")
    size, rest = divmod(total_bytes, n_partitions)
    if rest or size < 1:
        raise ConfigError(f"total {total_bytes}B not divisible by "
                         f"{n_partitions} partitions")
    return size


class PartitionedBuffer(Buffer):
    """A buffer divided into ``n_partitions`` equal user partitions.

    Mirrors the MPI Partitioned view: ``partition_size`` bytes each,
    partition ``i`` occupying ``[i * partition_size, (i+1) * partition_size)``.
    """

    def __init__(self, n_partitions: int, partition_size: int, backed: bool = True):
        if n_partitions <= 0:
            raise PartitionError(f"n_partitions must be positive, got {n_partitions}")
        if partition_size <= 0:
            raise PartitionError(f"partition_size must be positive, got {partition_size}")
        super().__init__(n_partitions * partition_size, backed=backed)
        self.n_partitions = int(n_partitions)
        self.partition_size = int(partition_size)

    def partition_offset(self, index: int) -> int:
        """Byte offset of partition ``index``."""
        self._check_partition(index)
        return index * self.partition_size

    def partition_view(self, index: int) -> Optional[np.ndarray]:
        """The bytes of partition ``index`` (None if unbacked)."""
        return self.read(self.partition_offset(index), self.partition_size)

    def range_offset(self, start: int, count: int) -> tuple[int, int]:
        """(offset, length) covering partitions [start, start+count)."""
        self._check_partition(start)
        if count < 1 or start + count > self.n_partitions:
            raise PartitionError(
                f"partition range [{start}, {start + count}) outside "
                f"[0, {self.n_partitions})"
            )
        return start * self.partition_size, count * self.partition_size

    def _check_partition(self, index: int) -> None:
        if not (0 <= index < self.n_partitions):
            raise PartitionError(
                f"partition index {index} outside [0, {self.n_partitions})"
            )

    def __repr__(self) -> str:
        return (
            f"<PartitionedBuffer {self.n_partitions}x{self.partition_size}B "
            f"{'backed' if self.backed else 'phantom'}>"
        )
