"""PMPI-style interposition on the partitioned entry points.

Attaching a profiler to a process wraps ``start`` and ``pready`` the
way a PMPI shim wraps ``MPI_Start``/``MPI_Pready``: the original call
runs unchanged, and the profiler records the virtual timestamp of the
program *reaching* the call — exactly the measurement methodology of
Section V-C2 ("measure the time the program arrives at MPI_Start, and
at each MPI_Pready call").

The partitioned-collective entry points (``pcoll_start`` /
``pcoll_pready`` / ``pcoll_wait``) are interposed the same way: each
Start..Wait cycle of a collective becomes a :class:`CollectiveRound`
carrying both the program-side pready call times and, per neighbor,
the ``MPI_Pready`` timeline the edge's send request observed — the
per-edge quantity the δ-timer and per-edge autotuners react to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.mpi.process import MPIProcess


@dataclass
class ProfiledRound:
    """One Start..completion cycle of one request."""

    request_id: int
    round_index: int
    t_start: float
    #: partition -> time the program reached MPI_Pready for it.
    pready: dict[int, float] = field(default_factory=dict)
    t_complete: Optional[float] = None
    #: Transport module that served the round — for a degradation
    #: ladder this is the *active rung* name, so demotions/promotions
    #: show up round by round in the profile.
    module: Optional[str] = None
    #: Ladder rung index (None when the edge runs no ladder).
    level: Optional[int] = None

    def pready_times(self) -> list[float]:
        """Per-partition call times, ordered by partition index."""
        return [self.pready[i] for i in sorted(self.pready)]

    def relative_pready_times(self) -> list[float]:
        """Call times relative to this round's ``MPI_Start``."""
        return [t - self.t_start for t in self.pready_times()]


@dataclass
class CollectiveRound:
    """One Start..Wait cycle of one partitioned collective."""

    coll_name: str
    epoch: int
    round_index: int
    t_start: float
    #: partition -> time the program reached ``pcoll_pready`` for it
    #: (a ``neighbor=None`` fan-out records once, at the call site).
    pready: dict[int, float] = field(default_factory=dict)
    #: neighbor rank -> per-partition ``MPI_Pready`` timestamps on that
    #: outgoing edge, snapshotted when the round's Wait completes.
    neighbor_pready: dict[int, list] = field(default_factory=dict)
    t_complete: Optional[float] = None
    #: neighbor rank -> transport module (active ladder rung) that
    #: served the round's outgoing edge, snapshotted at Wait.
    neighbor_modules: dict[int, str] = field(default_factory=dict)
    #: neighbor rank -> ladder rung index (None off-ladder edges).
    neighbor_levels: dict[int, Optional[int]] = field(default_factory=dict)

    def neighbor_spread(self) -> dict[int, Optional[float]]:
        """Per-edge pready spread (None where nothing was readied)."""
        out = {}
        for nbr, times in self.neighbor_pready.items():
            seen = [t for t in times if t is not None]
            out[nbr] = (max(seen) - min(seen)) if seen else None
        return out


class PMPIProfiler:
    """Wraps one process's partitioned calls and accumulates rounds."""

    def __init__(self):
        self.rounds: list[ProfiledRound] = []
        self.coll_rounds: list[CollectiveRound] = []
        self._open: dict[int, ProfiledRound] = {}
        self._open_coll: dict[int, CollectiveRound] = {}
        self._round_counter: dict[int, int] = {}
        self._coll_counter: dict[int, int] = {}
        self._attached: list = []

    def attach(self, process: "MPIProcess") -> None:
        """Interpose on ``process`` (idempotent per process)."""
        if process in self._attached:
            return
        self._attached.append(process)
        orig_start = process.start
        orig_pready = process.pready
        orig_wait = process.wait_partitioned
        profiler = self

        def start(req):
            profiler._record_start(process, req)
            result = yield from orig_start(req)
            return result

        def pready(req, partition):
            profiler._record_pready(process, req, partition)
            result = yield from orig_pready(req, partition)
            return result

        def wait_partitioned(req):
            result = yield from orig_wait(req)
            profiler._record_complete(process, req)
            return result

        orig_pcoll_start = process.pcoll_start
        orig_pcoll_pready = process.pcoll_pready
        orig_pcoll_wait = process.pcoll_wait

        def pcoll_start(coll):
            profiler._record_coll_start(process, coll)
            result = yield from orig_pcoll_start(coll)
            return result

        def pcoll_pready(coll, partition, neighbor=None):
            profiler._record_coll_pready(process, coll, partition)
            result = yield from orig_pcoll_pready(coll, partition,
                                                  neighbor=neighbor)
            return result

        def pcoll_wait(coll):
            result = yield from orig_pcoll_wait(coll)
            profiler._record_coll_complete(process, coll)
            return result

        process.start = start
        process.pready = pready
        process.wait_partitioned = wait_partitioned
        process.pcoll_start = pcoll_start
        process.pcoll_pready = pcoll_pready
        process.pcoll_wait = pcoll_wait

    @staticmethod
    def _module_of(req) -> tuple[Optional[str], Optional[int]]:
        """(module name, ladder level) actually serving ``req`` now."""
        module = getattr(req, "module", None)
        if module is None:
            return getattr(req, "module_name", None), None
        return (getattr(module, "rung_name", req.module_name),
                getattr(module, "level", None))

    def _record_start(self, process, req) -> None:
        index = self._round_counter.get(req.request_id, 0)
        self._round_counter[req.request_id] = index + 1
        record = ProfiledRound(
            request_id=req.request_id,
            round_index=index,
            t_start=process.env.now,
        )
        record.module, record.level = self._module_of(req)
        self._open[req.request_id] = record
        self.rounds.append(record)

    def _record_pready(self, process, req, partition) -> None:
        record = self._open.get(req.request_id)
        if record is not None:
            record.pready[partition] = process.env.now

    def _record_complete(self, process, req) -> None:
        record = self._open.get(req.request_id)
        if record is not None and record.t_complete is None:
            record.t_complete = process.env.now
            # Re-snapshot: the first Start can run before match time,
            # and a ladder may have swapped rungs since Start.
            record.module, record.level = self._module_of(req)

    def _record_coll_start(self, process, coll) -> None:
        index = self._coll_counter.get(id(coll), 0)
        self._coll_counter[id(coll)] = index + 1
        record = CollectiveRound(
            coll_name=coll.name,
            epoch=coll.epoch,
            round_index=index,
            t_start=process.env.now,
        )
        self._open_coll[id(coll)] = record
        self.coll_rounds.append(record)

    def _record_coll_pready(self, process, coll, partition) -> None:
        record = self._open_coll.get(id(coll))
        if record is not None and partition not in record.pready:
            record.pready[partition] = process.env.now

    def _record_coll_complete(self, process, coll) -> None:
        record = self._open_coll.get(id(coll))
        if record is not None and record.t_complete is None:
            record.t_complete = process.env.now
            record.neighbor_pready = {
                nbr: list(req.pready_times)
                for nbr, req in coll.sends.items()}
            for nbr, req in coll.sends.items():
                name, level = self._module_of(req)
                record.neighbor_modules[nbr] = name
                record.neighbor_levels[nbr] = level

    # -- accessors -----------------------------------------------------------

    def completed_rounds(self, skip: int = 0) -> list[ProfiledRound]:
        """Rounds with full pready data, skipping ``skip`` warm-ups."""
        full = [r for r in self.rounds if r.pready and r.t_complete is not None]
        return full[skip:]

    def arrival_rounds(self, skip: int = 0) -> list[list[float]]:
        """Per-round relative pready times (min-δ estimation input)."""
        return [r.relative_pready_times() for r in self.completed_rounds(skip)]

    def completed_coll_rounds(self, skip: int = 0) -> list[CollectiveRound]:
        """Collective rounds that reached Wait, skipping warm-ups."""
        full = [r for r in self.coll_rounds if r.t_complete is not None]
        return full[skip:]
