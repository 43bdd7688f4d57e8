"""The shared lifecycle of a partitioned collective.

A :class:`PartitionedCollective` owns a set of matched per-neighbor
:class:`~repro.mpi.request.PsendRequest`/:class:`~repro.mpi.request.PrecvRequest`
members.  Like the point-to-point partitioned requests it is
*persistent*: init once (edges match, modules instantiate, QPs come
up asynchronously), then every round is ``pcoll_start`` →
``pcoll_pready`` from worker threads → ``pcoll_wait``.

Tag discipline: each collective instance draws one epoch from
:meth:`~repro.mpi.process.MPIProcess.next_coll_epoch` under its class
``name``, so repeated and concurrent collectives never cross-match as
long as every rank issues them in the same order.  Edge tags only need
to disambiguate *within* the instance — the matching key already
includes the (source, destination) rank pair.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import MPIError

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess
    from repro.mpi.request import PrecvRequest, PsendRequest


class PartitionedCollective:
    """Base: a bundle of per-neighbor partitioned request pairs."""

    #: Epoch namespace; subclasses override (``coll.neighbor``, ...).
    name = "coll.base"

    def __init__(self, process: "MPIProcess"):
        self.process = process
        self.epoch = process.next_coll_epoch(self.name)
        #: Outgoing edges: neighbor rank -> PsendRequest.
        self.sends: dict[int, "PsendRequest"] = {}
        #: Incoming edges: neighbor rank -> PrecvRequest.
        self.recvs: dict[int, "PrecvRequest"] = {}
        #: Rounds started so far (increments on each ``start``).
        self.round = 0

    # -- construction helpers (subclasses) ------------------------------

    def _tag(self, *extra) -> tuple:
        return (self.name, self.epoch, *extra)

    # -- lifecycle -------------------------------------------------------

    @property
    def neighbors(self) -> list[int]:
        """Every rank this collective exchanges with (sorted)."""
        return sorted(set(self.sends) | set(self.recvs))

    @property
    def requests(self) -> list:
        """All member requests (recvs first, matching start order)."""
        return list(self.recvs.values()) + list(self.sends.values())

    @property
    def done(self) -> bool:
        """Whether this round has fully completed on this rank."""
        return all(req.done for req in self.requests)

    def start(self):
        """(Re)activate every member for a new round; yields.

        Receives start before sends, so a peer's first partition can
        never land before its target round is armed.  Subclasses hook
        :meth:`_post_start` to spawn per-round forwarding machinery.
        """
        self.round += 1
        for req in self.requests:
            yield from self.process.start(req)
        self._post_start()

    def _post_start(self) -> None:
        """Per-round hook run after every member is active."""

    def pready(self, partition: int, neighbor: Optional[int] = None):
        """Mark ``partition`` ready; yields (worker-thread context).

        ``neighbor=None`` readies the partition on every outgoing edge
        — the common stencil idiom where one thread's boundary work
        feeds all of its faces at once.
        """
        for nbr in self._pready_targets(neighbor):
            yield from self.process.pready(self.sends[nbr], partition)

    def _pready_targets(self, neighbor: Optional[int]) -> Iterable[int]:
        if neighbor is None:
            return list(self.sends)
        if neighbor not in self.sends:
            raise MPIError(
                f"rank {self.process.rank} has no outgoing edge to "
                f"{neighbor} in {type(self).__name__}")
        return (neighbor,)

    def parrived(self, neighbor: int, partition: int):
        """Arrival test on one inbound edge; yields, returns bool."""
        if neighbor not in self.recvs:
            raise MPIError(
                f"rank {self.process.rank} has no inbound edge from "
                f"{neighbor} in {type(self).__name__}")
        result = yield from self.process.parrived(
            self.recvs[neighbor], partition)
        return result

    def wait(self):
        """Progress until the whole round completes on this rank."""
        yield from self.process.engine.wait_until(lambda: self.done)

    # -- diagnostics -----------------------------------------------------

    def edge_stats(self) -> dict:
        """Per-edge diagnostics of the *current* round.

        For each outgoing edge: the ``MPI_Pready`` timeline, its
        non-laggard spread vs. laggard gap (the per-edge quantities the
        δ-timer and autotuner react to), and the transport module's WR
        accounting when the module exposes it.
        """
        stats = {}
        for nbr, req in self.sends.items():
            times = [t for t in req.pready_times if t is not None]
            entry = {
                "pready_times": list(req.pready_times),
                "spread": (max(times) - min(times)) if times else None,
            }
            module = req.module
            if module is not None and hasattr(module, "total_wrs_posted"):
                entry["wrs_posted"] = module.total_wrs_posted
                entry["timer_flushes"] = module.timer_flushes
            stats[nbr] = entry
        return stats

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} rank={self.process.rank} "
                f"epoch={self.epoch} neighbors={self.neighbors} "
                f"round={self.round}>")
