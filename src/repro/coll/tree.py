"""Partitioned broadcast and allreduce over binomial trees.

Both collectives build a binomial tree over the ranks and move data
through persistent per-edge partitioned pairs: a partition flows down
(or up) the tree as soon as it is ready, edge by edge, without waiting
for its siblings.  Interior ranks run a per-round *forwarder* process
that watches arrivals on the inbound edge and ``Pready``\\ s the
partition on the outbound edges — the tree-collective analogue of the
paper's "ready partitions go on the wire now" pipelining.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.coll.base import PartitionedCollective
from repro.coll.plans import edge_modules
from repro.errors import MPIError, PartitionError
from repro.mem.buffer import PartitionedBuffer

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess


def _binomial_children(rank: int, root: int, world: int) -> list[int]:
    """Children of ``rank`` in a binomial tree rooted at ``root``."""
    virtual = (rank - root) % world
    children = []
    mask = 1
    while mask < world:
        if virtual & (mask - 1) == 0 and virtual | mask < world and not virtual & mask:
            children.append(((virtual | mask) + root) % world)
        mask <<= 1
    return children


def _binomial_parent(rank: int, root: int, world: int) -> Optional[int]:
    virtual = (rank - root) % world
    if virtual == 0:
        return None
    # Clear the lowest set bit.
    parent_virtual = virtual & (virtual - 1)
    return (parent_virtual + root) % world


def _sum_inplace(dst: np.ndarray, src: np.ndarray) -> None:
    """Default allreduce op: elementwise sum (uint8, wrapping)."""
    dst += src


class _TreeCollective(PartitionedCollective):
    """Shared binomial-tree scaffolding (parent/children edges)."""

    def __init__(self, process: "MPIProcess", buf: PartitionedBuffer,
                 world: int, root: int = 0):
        if world < 1:
            raise MPIError(f"world must be >= 1, got {world}")
        if not (0 <= root < world):
            raise MPIError(f"root {root} outside world of {world}")
        if process.rank >= world:
            raise MPIError(
                f"rank {process.rank} outside world of {world}")
        super().__init__(process)
        self.buf = buf
        self.world = world
        self.root = root
        if world == 1:
            self.parent: Optional[int] = None
            self.children: list[int] = []
        else:
            self.parent = _binomial_parent(process.rank, root, world)
            self.children = _binomial_children(process.rank, root, world)

    def _check_partition(self, index: int) -> None:
        if not (0 <= index < self.buf.n_partitions):
            raise PartitionError(
                f"partition {index} outside [0, {self.buf.n_partitions})")


class Pbcast(_TreeCollective):
    """Persistent partitioned broadcast.

    The root ``Pready``\\ s partitions of ``buf`` as they become valid;
    every other rank receives them into its own ``buf``, interior
    ranks forwarding each partition to their subtree the moment it
    arrives.  ``parrived(None, p)`` asks whether partition ``p`` holds
    broadcast data yet on this rank.
    """

    name = "coll.pbcast"

    def __init__(self, process: "MPIProcess", buf: PartitionedBuffer,
                 world: int, root: int = 0, module_for=None):
        super().__init__(process, buf, world, root)
        resolve = edge_modules(module_for)
        if self.parent is not None:
            self.recvs[self.parent] = process.precv_init(
                buf, source=self.parent, tag=self._tag("d"),
                module=resolve(self.parent))
        for child in self.children:
            self.sends[child] = process.psend_init(
                buf, dest=child, tag=self._tag("d"), module=resolve(child))

    def _post_start(self) -> None:
        if self.parent is not None and self.sends:
            self.process.env.process(self._forward_round())

    def _forward_round(self):
        """Interior rank: push each partition downtree as it arrives."""
        inbound = self.recvs[self.parent]
        n = inbound.n_partitions
        forwarded = [False] * n

        def arrivals():
            return [p for p in range(n)
                    if inbound.arrived[p] and not forwarded[p]]

        while not all(forwarded):
            ready = arrivals()
            if not ready:
                yield from self.process.engine.wait_until(
                    lambda: bool(arrivals()))
                continue
            for p in ready:
                forwarded[p] = True
                for child in self.children:
                    yield from self.process.pready(self.sends[child], p)

    def pready(self, partition: int, neighbor: Optional[int] = None):
        if self.process.rank != self.root:
            raise MPIError(
                f"Pready on a Pbcast is root-only (rank "
                f"{self.process.rank}, root {self.root})")
        self._check_partition(partition)
        yield from super().pready(partition, neighbor)

    def parrived(self, neighbor: Optional[int] = None, partition: int = 0):
        """Whether ``partition`` holds broadcast data on this rank yet.

        ``neighbor`` defaults to the tree parent (the only inbound
        edge); on the root it is ignored and the answer is ``True``.
        """
        self._check_partition(partition)
        if self.parent is None:
            yield from self.process.engine.progress_once()
            return True
        result = yield from super().parrived(
            self.parent if neighbor is None else neighbor, partition)
        return result


class Pallreduce(_TreeCollective):
    """Persistent partitioned allreduce (reduce up + broadcast down).

    Every rank contributes ``buf`` and ends the round with the reduced
    result in ``buf``.  Per partition, the pipeline is: the app
    ``Pready``\\ s its contribution; once every child's contribution
    has arrived the rank folds them in with ``op`` (in-place
    ``op(dst, src)``, elementwise sum by default) and readies the
    partial uptree; the root's completed partitions stream back
    downtree immediately.  Each edge and direction is its own matched
    pair, so asymmetric edges can carry different aggregation plans.
    """

    name = "coll.pallreduce"

    def __init__(self, process: "MPIProcess", buf: PartitionedBuffer,
                 world: int,
                 op: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
                 module_for=None, root: int = 0):
        super().__init__(process, buf, world, root)
        self.op = op if op is not None else _sum_inplace
        resolve = edge_modules(module_for)
        n, size = buf.n_partitions, buf.partition_size
        #: Per-child staging buffers for uptree contributions.
        self._stage: dict[int, PartitionedBuffer] = {}
        for child in self.children:
            stage = PartitionedBuffer(n, size, backed=buf.backed)
            self._stage[child] = stage
            self.recvs[child] = process.precv_init(
                stage, source=child, tag=self._tag("up"),
                module=resolve(child))
        if self.parent is not None:
            self.sends[self.parent] = process.psend_init(
                buf, dest=self.parent, tag=self._tag("up"),
                module=resolve(self.parent))
            self.recvs[self.parent] = process.precv_init(
                buf, source=self.parent, tag=self._tag("down"),
                module=resolve(self.parent))
        for child in self.children:
            self.sends[child] = process.psend_init(
                buf, dest=child, tag=self._tag("down"),
                module=resolve(child))
        # Trivially final while inactive (MPI_Wait on an inactive
        # persistent request returns immediately); reset per Start.
        self._own_ready = [True] * n
        self._reduced = [True] * n
        self._final = [True] * n

    @property
    def done(self) -> bool:
        return super().done and all(self._final)

    def _post_start(self) -> None:
        n = self.buf.n_partitions
        self._own_ready = [False] * n
        self._reduced = [False] * n
        self._final = [False] * n
        self.process.env.process(self._run_round())

    # -- per-round machinery --------------------------------------------

    def _can_reduce(self, p: int) -> bool:
        return (not self._reduced[p] and self._own_ready[p]
                and all(self.recvs[c].arrived[p] for c in self.children))

    def _can_finalize(self, p: int) -> bool:
        return (not self._final[p] and self.parent is not None
                and bool(self.recvs[self.parent].arrived[p]))

    def _actionable(self) -> bool:
        return any(self._can_reduce(p) or self._can_finalize(p)
                   for p in range(self.buf.n_partitions))

    def _fold(self, p: int) -> None:
        if not self.buf.backed:
            return
        dst = self.buf.partition_view(p)
        for child in self.children:
            self.op(dst, self._stage[child].partition_view(p))

    def _run_round(self):
        """Per-round driver: reduce uptree, stream results downtree."""
        n = self.buf.n_partitions
        while not all(self._final):
            progressed = False
            for p in range(n):
                if self._can_reduce(p):
                    progressed = True
                    self._reduced[p] = True
                    self._fold(p)
                    if self.parent is not None:
                        yield from self.process.pready(
                            self.sends[self.parent], p)
                    else:
                        # Root: the fold *is* the final result.
                        self._final[p] = True
                        for child in self.children:
                            yield from self.process.pready(
                                self.sends[child], p)
                if self._can_finalize(p):
                    progressed = True
                    self._final[p] = True
                    for child in self.children:
                        yield from self.process.pready(self.sends[child], p)
            if progressed or all(self._final):
                continue
            yield from self.process.engine.wait_until(
                lambda: self._actionable())

    # -- app surface -----------------------------------------------------

    def pready(self, partition: int, neighbor: Optional[int] = None):
        """Mark this rank's contribution to ``partition`` ready."""
        self._check_partition(partition)
        if neighbor is not None:
            raise MPIError(
                "an allreduce contribution is collective; it cannot be "
                "readied toward a single neighbor")
        self._own_ready[partition] = True
        self.process.engine.kick()
        yield from self.process.engine.progress_once()

    def parrived(self, neighbor: Optional[int] = None, partition: int = 0):
        """Whether the *reduced* result for ``partition`` is in ``buf``."""
        self._check_partition(partition)
        if self._final[partition]:
            return True
        yield from self.process.engine.progress_once()
        return self._final[partition]
