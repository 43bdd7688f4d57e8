"""Partitioned tree-collective micro-benchmark.

Times :class:`~repro.coll.tree.Pallreduce` rounds across a world of
ranks: every rank's worker threads ``Pready`` their contribution
partitions after a compute phase, and an iteration completes when the
reduced result has streamed back down to every leaf.  The per-edge
module choice (``part_persist`` baseline vs. native aggregation)
applies to every tree edge, so the benchmark isolates what aggregation
buys on the reduction's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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


def run_pallreduce(
    module=None,
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
) -> PcollResult:
    """Time partitioned allreduce rounds (None = part_persist edges)."""
    n_partitions = n_threads if n_partitions is None else n_partitions
    if n_partitions % n_threads:
        raise ValueError(
            f"{n_partitions} partitions not divisible by "
            f"{n_threads} threads")
    per_thread = n_partitions // n_threads
    cluster = Cluster(n_nodes=world, config=config, topology=topology)
    procs = cluster.ranks(world)
    phase = ComputePhase(compute=compute,
                         noise=SingleThreadDelay(noise_fraction))

    def setup(rank, proc):
        buf = PartitionedBuffer(n_partitions, partition_size, backed=False)
        coll = proc.pallreduce_init(buf, world, module_for=module)
        team = WorkerTeam.on(cluster, n_threads, f"noise.rank{rank}")

        def body(tid):
            for p in range(tid * per_thread, (tid + 1) * per_thread):
                yield from proc.pcoll_pready(coll, p)

        def one_round(it):
            yield from proc.pcoll_start(coll)
            yield team.run_round(phase, lambda tid: body(tid))
            yield from proc.pcoll_wait(coll)

        return one_round

    clock = spawn_rounds(cluster, procs, iterations, warmup, setup)
    cluster.run()
    return PcollResult(
        world=world, n_threads=n_threads, n_partitions=n_partitions,
        partition_size=partition_size, compute=compute,
        times=clock.times())
