"""Partitioned tree-collective rounds.

Times :class:`~repro.coll.tree.Pallreduce` or
:class:`~repro.coll.tree.Pbcast` rounds across a world of ranks: every
contributing rank's worker threads ``Pready`` their partitions after a
compute phase, and an iteration completes when the result has streamed
to every rank.  The per-edge module choice (``part_persist`` baseline
vs. native aggregation) applies to every tree edge, so the benchmark
isolates what aggregation buys on the collective's critical path.

With ``backed=True`` every contributor fills its buffer with a seeded
pattern each round and every rank checks the bytes it ends with — the
wrapping uint8 sum of all fills (allreduce) or the root's fill
(broadcast) — which, with ``faults``, is what the chaos workloads run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.config import ClusterConfig
from repro.mem.buffer import PartitionedBuffer
from repro.mpi.cluster import Cluster
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.runtime.rounds import RoundTimes, spawn_rounds

@dataclass
class PcollResult(RoundTimes):
    """Tree-collective benchmark outcome."""

    world: int
    n_threads: int
    n_partitions: int
    partition_size: int
    compute: float
    times: list[float] = field(default_factory=list)
    #: Every rank ran every round to the end.
    completed: bool = False
    #: Backed-run integrity: (rank, round) pairs that ended on wrong bytes.
    integrity_failures: int = 0
    #: Fabric counters after the run (fault/recovery accounting).
    counters: dict = field(default_factory=dict)
    #: Transport state a completed run left behind (empty = clean).
    leaks: list = field(default_factory=list)


def _fill_seed(it: int, rank: int, world: int) -> int:
    return ((it * world + rank) * 2654435761) % (1 << 31)


def _leaks(colls) -> list[str]:
    """Leftover transport state after the last round (should be empty)."""
    leaks: list[str] = []
    seen: set[int] = set()
    for coll in colls:
        for req in list(coll.sends.values()) + list(coll.recvs.values()):
            module = req.module
            if module is None or id(module) in seen:
                continue
            seen.add(id(module))
            edge = f"edge {req.process.rank}<->{req.peer}"
            tracker = getattr(module, "_tracker", None)
            if tracker is not None:
                if tracker.replay:
                    leaks.append(f"{edge}: {len(tracker.replay)} "
                                 "unreplayed WR runs")
                if tracker._inflight:
                    leaks.append(f"{edge}: {len(tracker._inflight)} "
                                 "tracked WRs never completed")
            credit = getattr(module, "_credit", None)
            if credit is not None and credit.deferred:
                leaks.append(f"{edge}: {len(credit.deferred)} partitions "
                             "stuck behind round credit")
            if getattr(module, "blocks_completion", False):
                leaks.append(f"{edge}: rescue partitions still in flight")
    return leaks


def run_pcoll(
    module=None,
    collective: str = "pallreduce",
    world: int = 8,
    n_threads: int = 4,
    n_partitions: Optional[int] = None,
    partition_size: int = 64 * 1024,
    compute: float = 1e-3,
    noise_fraction: float = 0.01,
    iterations: int = 5,
    warmup: int = 1,
    config: Optional[ClusterConfig] = None,
    topology=None,
    faults=None,
    backed: bool = False,
) -> PcollResult:
    """Time ``collective`` rounds (``module`` None = part_persist edges).

    ``collective`` is ``pallreduce`` (every rank contributes) or
    ``pbcast`` (rank 0 does); ``backed=True`` moves real bytes and
    checks them every round, ``faults`` installs a
    :class:`~repro.faults.FaultSchedule`.
    """
    if collective not in ("pallreduce", "pbcast"):
        raise ValueError(f"unknown collective {collective!r} "
                         "(have: pallreduce, pbcast)")
    n_partitions = n_threads if n_partitions is None else n_partitions
    if n_partitions % n_threads:
        raise ValueError(
            f"{n_partitions} partitions not divisible by "
            f"{n_threads} threads")
    per_thread = n_partitions // n_threads
    with Cluster(n_nodes=world, config=config,
                 topology=topology) as cluster:
        if faults is not None:
            cluster.fabric.install_faults(faults)
        procs = cluster.ranks(world)
        phase = ComputePhase(compute=compute,
                             noise=SingleThreadDelay(noise_fraction))
        result = PcollResult(
            world=world, n_threads=n_threads, n_partitions=n_partitions,
            partition_size=partition_size, compute=compute)
        colls = []
        sums: dict[int, np.ndarray] = {}

        def expected(buf, it):
            """The bytes every rank holds after round ``it``."""
            if collective == "pbcast":
                return buf.expected_pattern(0, buf.nbytes,
                                            _fill_seed(it, 0, world))
            got = sums.get(it)
            if got is None:
                got = np.zeros(buf.nbytes, dtype=np.uint8)
                for r in range(world):
                    got = got + buf.expected_pattern(
                        0, buf.nbytes, _fill_seed(it, r, world))
                sums[it] = got
            return got

        def setup(rank, proc):
            buf = PartitionedBuffer(n_partitions, partition_size,
                                    backed=backed)
            init = (proc.pallreduce_init if collective == "pallreduce"
                    else proc.pbcast_init)
            coll = init(buf, world, module_for=module)
            colls.append(coll)
            team = WorkerTeam.on(cluster, n_threads, f"noise.rank{rank}")
            contributes = rank == 0 or collective == "pallreduce"

            def body(tid):
                if contributes:
                    for p in range(tid * per_thread, (tid + 1) * per_thread):
                        yield from proc.pcoll_pready(coll, p)
                else:
                    yield 0.0

            def one_round(it):
                if backed and contributes:
                    buf.fill_pattern(_fill_seed(it, rank, world))
                yield from proc.pcoll_start(coll)
                yield team.run_round(phase, lambda tid: body(tid))
                yield from proc.pcoll_wait(coll)
                if backed and not np.array_equal(buf.data,
                                                 expected(buf, it)):
                    result.integrity_failures += 1

            return one_round

        clock = spawn_rounds(cluster, procs, iterations, warmup, setup)
        cluster.run()
        result.completed = clock.done == world
        result.times = clock.times()
        result.counters = dict(cluster.fabric.counters)
        if result.completed:
            result.leaks = _leaks(colls)
        return result
