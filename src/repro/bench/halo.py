"""2-D halo-exchange pattern benchmark.

The paper's benchmark suite [14] ships a halo exchange next to Sweep3D;
this harness provides it for the same designs.  Unlike the wavefront,
every rank exchanges with all four neighbours *concurrently* each
timestep: start receives, compute (threads pready both outgoing faces'
partitions), wait everything, repeat.  The metric mirrors the sweep:
communication time = iteration wall time minus one compute phase (all
ranks compute in parallel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.config import ClusterConfig
from repro.core.aggregators import Aggregator
from repro.core.module import spec_for
from repro.errors import ConfigError
from repro.mem.buffer import PartitionedBuffer, partition_size_of
from repro.mpi.cluster import Cluster
from repro.mpi.modules import ModuleSpec
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.runtime.rounds import RoundTimes, spawn_rounds

_DIRECTIONS = ("up", "down", "left", "right")
_OPPOSITE = {"up": "down", "down": "up", "left": "right", "right": "left"}


@dataclass
class HaloResult(RoundTimes):
    """Halo benchmark outcome."""

    grid: tuple[int, int]
    n_threads: int
    face_bytes: int
    compute: float
    noise_fraction: float
    times: list[float] = field(default_factory=list)


def run_halo(
    module: Union[Aggregator, ModuleSpec, Callable[[], ModuleSpec], None],
    grid: tuple[int, int] = (4, 4),
    n_threads: int = 16,
    face_bytes: int = 1 << 20,
    compute: float = 1e-3,
    noise_fraction: float = 0.01,
    iterations: int = 10,
    warmup: int = 3,
    config: Optional[ClusterConfig] = None,
    topology=None,
) -> HaloResult:
    """Run the halo pattern (None module = part_persist baseline)."""
    if len(grid) != 2 or min(grid) < 1:
        raise ConfigError(f"bad 2-D grid {grid}")
    px, py = grid
    partition_size = partition_size_of(face_bytes, n_threads)
    n_ranks = px * py
    with Cluster(n_nodes=n_ranks, config=config,
                 topology=topology) as cluster:
        procs = cluster.ranks(n_ranks)
        phase = ComputePhase(compute=compute,
                             noise=SingleThreadDelay(noise_fraction))

        def rank_id(i: int, j: int) -> int:
            return i * py + j

        def neighbours(i: int, j: int) -> dict[str, int]:
            out = {}
            if i > 0:
                out["up"] = rank_id(i - 1, j)
            if i < px - 1:
                out["down"] = rank_id(i + 1, j)
            if j > 0:
                out["left"] = rank_id(i, j - 1)
            if j < py - 1:
                out["right"] = rank_id(i, j + 1)
            return out

        def setup(rid: int, proc):
            i, j = divmod(rid, py)
            sends, recvs = {}, {}
            for direction, peer in neighbours(i, j).items():
                tag = _DIRECTIONS.index(direction)
                send_face = PartitionedBuffer(n_threads, partition_size,
                                              backed=False)
                recv_face = PartitionedBuffer(n_threads, partition_size,
                                              backed=False)
                sends[direction] = proc.psend_init(
                    send_face, dest=peer, tag=tag, module=spec_for(module))
                recvs[direction] = proc.precv_init(
                    recv_face, source=peer,
                    tag=_DIRECTIONS.index(_OPPOSITE[direction]),
                    module=spec_for(module))
            team = WorkerTeam.on(cluster, n_threads, f"noise.rank{rid}")
            send_reqs = list(sends.values())

            def body(tid):
                for req in send_reqs:
                    yield from proc.pready(req, tid)

            def one_round(it):
                for req in list(recvs.values()) + send_reqs:
                    yield from proc.start(req)
                yield team.run_round(phase, lambda tid: body(tid))
                for req in send_reqs:
                    yield from proc.wait_partitioned(req)
                for req in recvs.values():
                    yield from proc.wait_partitioned(req)

            return one_round

        clock = spawn_rounds(cluster, procs, iterations, warmup, setup)
        cluster.run()
        return HaloResult(
            grid=grid,
            n_threads=n_threads,
            face_bytes=face_bytes,
            compute=compute,
            noise_fraction=noise_fraction,
            times=clock.times(),
        )
