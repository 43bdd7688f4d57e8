"""Host memory model: buffers and partition views."""

from repro.mem.buffer import Buffer, PartitionedBuffer, partition_size_of

__all__ = ["Buffer", "PartitionedBuffer", "partition_size_of"]
