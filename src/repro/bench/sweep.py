"""The Sweep3D communication pattern — Section V-D / Fig. 14.

A 2-D process grid swept from the top-left corner: each rank waits for
partitioned receives from its up/left neighbours, computes with its
thread team (noise injected), then partition-sends to its down/right
neighbours.  The paper runs this on 1024 cores (16 threads x 64 nodes);
the default grid here matches (8 x 8 ranks, one per node, 16 threads).

Reported metric: *communication time* — iteration wall time minus the
wavefront's critical-path compute — and its speedup over the
``part_persist`` baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.coll.plans import spec_for
from repro.config import ClusterConfig
from repro.core.aggregators import Aggregator
from repro.mem.buffer import PartitionedBuffer, partition_size_of
from repro.mpi.cluster import Cluster
from repro.mpi.modules import ModuleSpec
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.runtime.rounds import RoundTimes, spawn_rounds

_TAG_RIGHT = 0
_TAG_DOWN = 1


@dataclass
class SweepResult(RoundTimes):
    """Sweep benchmark outcome."""

    grid: tuple[int, int]
    n_threads: int
    total_bytes: int
    compute: float
    noise_fraction: float
    #: Wall time of each measured iteration.
    times: list[float] = field(default_factory=list)

    @property
    def critical_path_compute(self) -> float:
        """The wavefront's compute chain (Fig. 14 subtracts it)."""
        px, py = self.grid
        return (px + py - 1) * self.compute


def run_sweep(
    module: Union[Aggregator, ModuleSpec, Callable[[], ModuleSpec], None],
    grid: tuple[int, int] = (8, 8),
    n_threads: int = 16,
    total_bytes: int = 1 << 20,
    compute: float = 1e-3,
    noise_fraction: float = 0.01,
    iterations: int = 10,
    warmup: int = 3,
    config: Optional[ClusterConfig] = None,
) -> SweepResult:
    """Run the sweep pattern (None module = part_persist baseline)."""
    px, py = grid
    if px < 1 or py < 1:
        raise ValueError(f"bad grid {grid}")
    partition_size = partition_size_of(total_bytes, n_threads)
    n_ranks = px * py
    cluster = Cluster(n_nodes=n_ranks, config=config)
    procs = cluster.ranks(n_ranks)
    phase = ComputePhase(compute=compute, noise=SingleThreadDelay(noise_fraction))

    def rank_id(i: int, j: int) -> int:
        return i * py + j

    def setup(rid: int, proc):
        i, j = divmod(rid, py)
        sends = {}
        recvs = {}
        if j + 1 < py:
            buf = PartitionedBuffer(n_threads, partition_size, backed=False)
            sends["right"] = proc.psend_init(
                buf, dest=rank_id(i, j + 1), tag=_TAG_RIGHT,
                module=spec_for(module))
        if i + 1 < px:
            buf = PartitionedBuffer(n_threads, partition_size, backed=False)
            sends["down"] = proc.psend_init(
                buf, dest=rank_id(i + 1, j), tag=_TAG_DOWN,
                module=spec_for(module))
        if j - 1 >= 0:
            buf = PartitionedBuffer(n_threads, partition_size, backed=False)
            recvs["left"] = proc.precv_init(
                buf, source=rank_id(i, j - 1), tag=_TAG_RIGHT,
                module=spec_for(module))
        if i - 1 >= 0:
            buf = PartitionedBuffer(n_threads, partition_size, backed=False)
            recvs["up"] = proc.precv_init(
                buf, source=rank_id(i - 1, j), tag=_TAG_DOWN,
                module=spec_for(module))
        team = WorkerTeam.on(cluster, n_threads, f"noise.rank{rid}")
        send_reqs = list(sends.values())

        def body(tid):
            for req in send_reqs:
                yield from proc.pready(req, tid)

        def one_round(it):
            for req in list(recvs.values()) + send_reqs:
                yield from proc.start(req)
            # Wavefront dependency: wait for inbound halves.
            for req in recvs.values():
                yield from proc.wait_partitioned(req)
            yield team.run_round(phase, lambda tid: body(tid))
            for req in send_reqs:
                yield from proc.wait_partitioned(req)

        return one_round

    clock = spawn_rounds(cluster, procs, iterations, warmup, setup)
    cluster.run()
    return SweepResult(
        grid=grid,
        n_threads=n_threads,
        total_bytes=total_bytes,
        compute=compute,
        noise_fraction=noise_fraction,
        times=clock.times(),
    )
