"""Threaded stencil application driver over partitioned neighbor-alltoall.

A 2-D/3-D Cartesian rank grid exchanging halos each timestep through
one persistent :class:`~repro.coll.neighbor.PneighborAlltoall` per
rank: worker threads compute interior rows and ``Pready`` their slice
of the boundary partitions as they finish, on every face at once.

The anisotropy knob matters here: ``face_bytes`` may differ per axis
(a non-cubic local domain), so a rank's edges carry different message
sizes — the regime where one global aggregation plan cannot be right
for every edge and per-edge plans (Table 1's size-dependent optimum)
pay off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.config import ClusterConfig
from repro.mem.buffer import PartitionedBuffer, partition_size_of
from repro.mpi.cluster import Cluster
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.runtime.rounds import RoundTimes, spawn_rounds


@dataclass
class StencilResult(RoundTimes):
    """Stencil run outcome with per-edge diagnostics."""

    grid: tuple[int, ...]
    n_threads: int
    n_partitions: int
    face_bytes: tuple[int, ...]
    compute: float
    noise_fraction: float
    #: Per-iteration wall time (max across ranks), warmup excluded.
    times: list[float] = field(default_factory=list)
    #: rank -> neighbor -> edge diagnostics of the last iteration.
    edge_stats: dict = field(default_factory=dict)
    #: rank -> neighbor -> aggregator ``describe()`` (native edges only).
    plans: dict = field(default_factory=dict)
    #: Backed-run integrity: faces whose received bytes were wrong.
    integrity_failures: int = 0
    #: Fabric counters after the run (fault/recovery accounting).
    counters: dict = field(default_factory=dict)


def _axes_of(grid: tuple[int, ...],
             face_bytes: Union[int, Sequence[int]]) -> tuple[int, ...]:
    ndim = len(grid)
    if ndim not in (2, 3):
        raise ValueError(f"grid must be 2-D or 3-D, got {grid}")
    if any(g < 1 for g in grid):
        raise ValueError(f"bad grid {grid}")
    if isinstance(face_bytes, int):
        return (face_bytes,) * ndim
    sizes = tuple(int(b) for b in face_bytes)
    if len(sizes) != ndim:
        raise ValueError(
            f"face_bytes has {len(sizes)} entries for a {ndim}-D grid")
    return sizes


def run_stencil(
    module=None,
    planner: Optional[Callable] = None,
    grid: tuple[int, ...] = (2, 2),
    n_threads: int = 4,
    n_partitions: Optional[int] = None,
    face_bytes: Union[int, Sequence[int]] = 1 << 16,
    compute: float = 1e-3,
    noise_fraction: float = 0.01,
    iterations: int = 4,
    warmup: int = 1,
    config: Optional[ClusterConfig] = None,
    topology=None,
    faults=None,
    backed: bool = False,
) -> StencilResult:
    """Run the stencil; returns timings plus per-edge diagnostics.

    ``module`` is a shared per-edge plan in :func:`repro.coll.edge_modules`
    vocabulary (``None`` = the ``part_persist`` baseline everywhere);
    ``planner``, when given, wins and is called once per rank as
    ``planner(proc, neighbor_axes)`` — where ``neighbor_axes`` maps
    neighbor rank to its axis — returning that rank's ``module_for``.
    ``backed=True`` moves real bytes and verifies every face each
    iteration (the exactly-once check the fault tests lean on);
    ``faults`` installs a :class:`~repro.faults.FaultSchedule`.
    """
    sizes = _axes_of(tuple(grid), face_bytes)
    ndim = len(grid)
    n_partitions = n_threads if n_partitions is None else n_partitions
    if n_partitions % n_threads:
        raise ValueError(
            f"{n_partitions} partitions not divisible by "
            f"{n_threads} threads")
    part_sizes = [partition_size_of(nbytes, n_partitions)
                  for nbytes in sizes]

    n_ranks = int(np.prod(grid))
    cluster = Cluster(n_nodes=n_ranks, config=config, topology=topology)
    if faults is not None:
        cluster.fabric.install_faults(faults)
    procs = cluster.ranks(n_ranks)
    colls = []
    phase = ComputePhase(compute=compute,
                         noise=SingleThreadDelay(noise_fraction))
    per_thread = n_partitions // n_threads
    result = StencilResult(
        grid=tuple(grid), n_threads=n_threads, n_partitions=n_partitions,
        face_bytes=sizes, compute=compute, noise_fraction=noise_fraction)

    def rank_id(coord: tuple[int, ...]) -> int:
        rid = 0
        for axis in range(ndim):
            rid = rid * grid[axis] + coord[axis]
        return rid

    def coord_of(rid: int) -> tuple[int, ...]:
        coord = []
        for axis in reversed(range(ndim)):
            coord.append(rid % grid[axis])
            rid //= grid[axis]
        return tuple(reversed(coord))

    def neighbor_axes(coord: tuple[int, ...]) -> dict[int, int]:
        """Neighbor rank -> axis of the shared face (non-periodic)."""
        out = {}
        for axis in range(ndim):
            for step in (-1, +1):
                c = coord[axis] + step
                if 0 <= c < grid[axis]:
                    nbr = list(coord)
                    nbr[axis] = c
                    out[rank_id(tuple(nbr))] = axis
        return out

    def fill_seed(it: int, src: int, dst: int) -> int:
        return ((it * n_ranks + src) * n_ranks + dst) % (1 << 31)

    def setup(rid: int, proc):
        axes = neighbor_axes(coord_of(rid))
        send_bufs, recv_bufs = {}, {}
        for nbr, axis in axes.items():
            send_bufs[nbr] = PartitionedBuffer(
                n_partitions, part_sizes[axis], backed=backed)
            recv_bufs[nbr] = PartitionedBuffer(
                n_partitions, part_sizes[axis], backed=backed)
        module_for = planner(proc, dict(axes)) if planner else module
        coll = proc.pneighbor_alltoall_init(send_bufs, recv_bufs,
                                            module_for)
        colls.append(coll)
        team = WorkerTeam.on(cluster, n_threads, f"noise.rank{rid}")

        def body(tid):
            for p in range(tid * per_thread, (tid + 1) * per_thread):
                yield from proc.pcoll_pready(coll, p)

        def one_round(it):
            if backed:
                for nbr, buf in send_bufs.items():
                    buf.fill_pattern(fill_seed(it, rid, nbr))
            yield from proc.pcoll_start(coll)
            yield team.run_round(phase, lambda tid: body(tid))
            yield from proc.pcoll_wait(coll)
            if backed:
                for nbr, buf in recv_bufs.items():
                    expect = buf.expected_pattern(
                        0, buf.nbytes, fill_seed(it, nbr, rid))
                    if not np.array_equal(buf.data, expect):
                        result.integrity_failures += 1

        return one_round

    clock = spawn_rounds(cluster, procs, iterations, warmup, setup)
    cluster.run()
    for rid, coll in enumerate(colls):
        result.edge_stats[rid] = coll.edge_stats()
        result.plans[rid] = {
            nbr: req.module_spec.aggregator.describe()
            for nbr, req in coll.sends.items()
            if getattr(req.module_spec, "aggregator", None) is not None
        }
    result.counters = cluster.fabric.counters.as_dict()
    result.times = clock.times()
    return result
