"""Request objects: plain point-to-point and partitioned."""

from __future__ import annotations

import enum
import itertools
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import PartitionError, RequestError
from repro.mem.buffer import Buffer, PartitionedBuffer

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess


_request_ids = itertools.count(1)


class Request:
    """Base MPI request: a completion flag owned by a process."""

    def __init__(self, process: "MPIProcess"):
        self.process = process
        self.request_id = next(_request_ids)
        #: Whether the request completed (read it; ``mark_complete``
        #: sets it).  A plain attribute: every progress pass of an
        #: ``MPI_Wait`` tests it.
        self.done = False
        #: Virtual time of completion (for measurements).
        self.completed_at: Optional[float] = None

    def mark_complete(self) -> None:
        if not self.done:
            self.done = True
            self.completed_at = self.process.env._now

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<{type(self).__name__} #{self.request_id} {state}>"


class P2PRequest(Request):
    """A non-blocking send or receive in flight."""

    def __init__(self, process: "MPIProcess", kind: str, buf: Buffer,
                 nbytes: int, peer: int, tag: int):
        super().__init__(process)
        if kind not in ("send", "recv"):
            raise RequestError(f"bad p2p request kind: {kind}")
        self.kind = kind
        self.buf = buf
        self.nbytes = nbytes
        self.peer = peer
        self.tag = tag
        #: For receives: payload staged from an unexpected message.
        self.staged: Optional[np.ndarray] = None


class PartitionedState(enum.Enum):
    """Lifecycle of a partitioned request."""

    SETUP = "setup"        # init called, module setup in flight
    INACTIVE = "inactive"  # matched and ready; not started
    ACTIVE = "active"      # between Start and completion
    COMPLETE = "complete"  # this round's transfer finished


class PartitionedRequest(Request):
    """Common state of Psend/Precv persistent requests."""

    def __init__(self, process: "MPIProcess", buf: PartitionedBuffer,
                 peer: int, tag: int, module_name: str):
        super().__init__(process)
        self.buf = buf
        self.peer = peer
        self.tag = tag
        self.module_name = module_name
        self.n_partitions = buf.n_partitions
        self.partition_size = buf.partition_size
        self.state = PartitionedState.SETUP
        #: Fires when module setup (QP exchange etc.) finished.
        self.ready_event = process.env.event()
        #: The transport module instance, set at match time.
        self.module = None
        #: Module-private per-request state.
        self.module_state: Optional[object] = None
        #: Round counter (increments on each Start).
        self.round = 0

    @property
    def total_bytes(self) -> int:
        return self.buf.nbytes

    def check_partition(self, index: int) -> None:
        if not (0 <= index < self.n_partitions):
            raise PartitionError(
                f"partition {index} outside [0, {self.n_partitions})")

    def require_active(self, what: str) -> None:
        if self.state is not PartitionedState.ACTIVE:
            raise RequestError(
                f"{what} on a request in state {self.state.value}")

    def mark_complete(self) -> None:
        # Persistent requests go COMPLETE, not terminal: Start re-arms.
        if not self.done:
            self.done = True
            self.completed_at = self.process.env._now
            self.state = PartitionedState.COMPLETE

    def rearm(self) -> None:
        """Reset completion for the next round (called by Start)."""
        self.done = False
        self.completed_at = None
        self.state = PartitionedState.ACTIVE
        self.round += 1


class PsendRequest(PartitionedRequest):
    """Sender-side partitioned request."""

    kind = "send"

    def __init__(self, process, buf, dest: int, tag: int, module_name: str):
        super().__init__(process, buf, dest, tag, module_name)
        #: MPI_Pready call time per partition, for this round
        #: (profiling/benchmarks read these).
        self.pready_times: list[Optional[float]] = [None] * self.n_partitions

    def record_pready(self, index: int) -> None:
        self.pready_times[index] = self.process.env._now

    def reset_round_stats(self) -> None:
        self.pready_times = [None] * self.n_partitions


class PrecvRequest(PartitionedRequest):
    """Receiver-side partitioned request."""

    kind = "recv"

    def __init__(self, process, buf, source: int, tag: int, module_name: str):
        super().__init__(process, buf, source, tag, module_name)
        #: Arrival flags per user partition, this round.
        self.arrived = np.zeros(self.n_partitions, dtype=bool)
        #: How many flags are set (``all_arrived`` without a reduction).
        self._n_arrived = 0
        #: Arrival times per user partition (measurements).
        self.arrival_times: list[Optional[float]] = [None] * self.n_partitions

    def mark_arrived(self, start: int, count: int) -> None:
        if start < 0 or count < 1 or start + count > self.n_partitions:
            raise PartitionError(
                f"arrival range [{start}, {start + count}) outside "
                f"[0, {self.n_partitions})")
        now = self.process.env._now
        arrived = self.arrived
        if count == 1:
            # The per-message case: no slice, no reduction.
            fresh = not arrived[start]
            arrived[start] = True
        else:
            span = arrived[start : start + count]
            fresh = count - int(np.count_nonzero(span))
            span[:] = True
        # A replayed range may overlap flags already set: count new ones.
        self._n_arrived += fresh
        for i in range(start, start + count):
            self.arrival_times[i] = now

    @property
    def all_arrived(self) -> bool:
        return self._n_arrived == self.n_partitions

    def reset_round_stats(self) -> None:
        self.arrived[:] = False
        self._n_arrived = 0
        self.arrival_times = [None] * self.n_partitions
