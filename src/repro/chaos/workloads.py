"""Registered chaos workloads: real communication patterns under faults.

A workload is a function ``fn(schedule, seed, **options) -> RunReport``
registered under a name together with the node count its fault
schedules should target.  Three ship by default:

* ``ext_stencil`` — the 2-D halo exchange from :mod:`repro.coll`
  (backed buffers, per-face integrity every iteration);
* ``pallreduce`` — the binomial-tree partitioned allreduce, verified
  against the wrapping uint8 sum of every rank's contribution;
* ``pbcast`` — the partitioned broadcast, verified against the root's
  fill pattern on every rank.

All three run on a *chaos recovery config*: short retry budgets and a
quick reconnect walk, so injected faults actually exhaust retries and
exercise replay/reconnect inside a few-millisecond virtual horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.chaos.invariants import RunReport
from repro.config import NIAGARA, ClusterConfig
from repro.mem.buffer import PartitionedBuffer
from repro.mpi.cluster import Cluster
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.runtime.rounds import spawn_rounds
from repro.units import KiB, ms, us


def chaos_config(seed: int,
                 base: Optional[ClusterConfig] = None) -> ClusterConfig:
    """Recovery-friendly config with the run's root seed baked in."""
    base = base if base is not None else NIAGARA
    return base.with_changes(
        seed=int(seed),
        nic=replace(base.nic, retry_cnt=2, rnr_retry=2, qp_timeout=1),
        part=replace(base.part, reconnect_delay=us(200)),
    )


def resolve_module(module="native", ladder: bool = False):
    """Normalize a module choice name, optionally wrapping in a ladder."""
    if isinstance(module, str):
        if module == "persist":
            module = None
        elif module == "native":
            from repro.core import PLogGPAggregator
            from repro.model.tables import NIAGARA_LOGGP

            module = PLogGPAggregator(NIAGARA_LOGGP, delay=ms(1))
        else:
            raise ValueError(
                f"unknown module {module!r} (have: native, persist)")
    if ladder:
        from repro.coll import ladder_modules

        return ladder_modules(module)
    return module


# -- registry -----------------------------------------------------------


@dataclass(frozen=True)
class WorkloadInfo:
    """A registered workload plus the world its schedules target."""

    name: str
    n_nodes: int
    fn: Callable


_REGISTRY: dict[str, WorkloadInfo] = {}


def workload(name: str, n_nodes: int):
    """Register a chaos workload under ``name``."""

    def deco(fn):
        _REGISTRY[name] = WorkloadInfo(name=name, n_nodes=n_nodes, fn=fn)
        return fn

    return deco


def workload_names() -> list[str]:
    return sorted(_REGISTRY)


def get_workload(name: str) -> WorkloadInfo:
    info = _REGISTRY.get(name)
    if info is None:
        raise ValueError(f"unknown workload {name!r} "
                         f"(have: {', '.join(workload_names())})")
    return info


# -- leak sweeps --------------------------------------------------------


def collect_leaks(colls) -> list[str]:
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


# -- ext_stencil --------------------------------------------------------


@workload("ext_stencil", n_nodes=4)
def run_ext_stencil(schedule, seed, module="native", ladder=False,
                    config=None, iterations=4, warmup=1) -> RunReport:
    """The repro.coll halo exchange, backed, with per-face integrity."""
    from repro.coll import run_stencil

    res = run_stencil(
        module=resolve_module(module, ladder),
        grid=(2, 2), n_threads=2, n_partitions=4, face_bytes=8 * KiB,
        compute=2e-4, noise_fraction=0.01,
        iterations=iterations, warmup=warmup,
        config=chaos_config(seed, config), faults=schedule, backed=True)
    completed = bool(res.times) and all(t > 0 for t in res.times)
    return RunReport(
        workload="ext_stencil", completed=completed,
        duration=float(sum(res.times)) if completed else 0.0,
        integrity_failures=res.integrity_failures, counters=res.counters,
        meta={"grid": "2x2", "iterations": iterations})


# -- tree collectives ---------------------------------------------------


def _fill_seed(it: int, rank: int, world: int) -> int:
    return ((it * world + rank) * 2654435761) % (1 << 31)


def _tree_driver(name, init, world, schedule, seed, module, ladder,
                 config, iterations, warmup, root_fills_only,
                 expected_for, n_partitions=4, partition_size=4 * KiB,
                 n_threads=2) -> RunReport:
    """What one round of a tree-collective workload does, run on the
    shared loop of :mod:`repro.runtime.rounds`.

    ``init(proc, buf, module_for)`` builds the collective;
    ``expected_for(scratch, it, rank)`` returns the array ``buf`` must
    equal after the round (``scratch`` is a throwaway backed buffer for
    ``expected_pattern`` calls).
    """
    cfg = chaos_config(seed, config)
    cluster = Cluster(n_nodes=world, config=cfg)
    if schedule is not None:
        cluster.fabric.install_faults(schedule)
    procs = cluster.ranks(world)
    per_thread = n_partitions // n_threads
    phase = ComputePhase(compute=2e-4, noise=SingleThreadDelay(0.01))
    module_for = resolve_module(module, ladder)
    scratch = PartitionedBuffer(n_partitions, partition_size, backed=True)
    state = {"integrity": 0, "colls": []}

    def setup(rank, proc):
        buf = PartitionedBuffer(n_partitions, partition_size, backed=True)
        coll = init(proc, buf, module_for)
        state["colls"].append(coll)
        team = WorkerTeam.on(cluster, n_threads, f"noise.rank{rank}")
        contributes = (rank == 0) if root_fills_only else True

        def body(tid):
            if contributes:
                for p in range(tid * per_thread, (tid + 1) * per_thread):
                    yield from proc.pcoll_pready(coll, p)
            else:
                yield 0.0

        def one_round(it):
            if contributes:
                buf.fill_pattern(_fill_seed(it, rank, world))
            yield from proc.pcoll_start(coll)
            yield team.run_round(phase, lambda tid: body(tid))
            yield from proc.pcoll_wait(coll)
            if not np.array_equal(buf.data, expected_for(scratch, it, rank)):
                state["integrity"] += 1

        return one_round

    clock = spawn_rounds(cluster, procs, iterations, warmup, setup)
    cluster.run()
    completed = clock.done == world
    duration = float(sum(clock.times())) if completed else 0.0
    return RunReport(
        workload=name, completed=completed, duration=duration,
        integrity_failures=state["integrity"],
        counters=cluster.fabric.counters.as_dict(),
        leaks=collect_leaks(state["colls"]) if completed else [],
        meta={"world": world, "iterations": iterations})


@workload("pallreduce", n_nodes=5)
def run_chaos_pallreduce(schedule, seed, module="native", ladder=False,
                         config=None, iterations=4, warmup=1,
                         world=5) -> RunReport:
    """Tree allreduce, checked against the wrapping sum of all fills."""
    cache: dict[int, np.ndarray] = {}

    def expected_for(scratch, it, rank):
        got = cache.get(it)
        if got is None:
            got = np.zeros(scratch.nbytes, dtype=np.uint8)
            for r in range(world):
                got = got + scratch.expected_pattern(
                    0, scratch.nbytes, _fill_seed(it, r, world))
            cache[it] = got
        return got

    return _tree_driver(
        "pallreduce",
        lambda proc, buf, m: proc.pallreduce_init(buf, world, module_for=m),
        world, schedule, seed, module, ladder, config, iterations, warmup,
        root_fills_only=False, expected_for=expected_for)


@workload("fleet", n_nodes=8)
def run_chaos_fleet(schedule, seed, module="native", ladder=False,
                    config=None, iterations=4, warmup=1) -> RunReport:
    """Two pair tenants sharing a spine link that flaps mid-campaign.

    Thin delegator; the driver and its tenant-isolation invariants live
    in :mod:`repro.fleet.chaos` (imported lazily to keep the chaos
    registry import-light).
    """
    from repro.fleet.chaos import run_fleet_workload

    return run_fleet_workload(schedule, seed, module=module, ladder=ladder,
                              config=config, iterations=iterations,
                              warmup=warmup)


@workload("pbcast", n_nodes=5)
def run_chaos_pbcast(schedule, seed, module="native", ladder=False,
                     config=None, iterations=4, warmup=1,
                     world=5) -> RunReport:
    """Tree broadcast, every rank checked against the root's pattern."""

    def expected_for(scratch, it, rank):
        return scratch.expected_pattern(
            0, scratch.nbytes, _fill_seed(it, 0, world))

    return _tree_driver(
        "pbcast",
        lambda proc, buf, m: proc.pbcast_init(buf, world, module_for=m),
        world, schedule, seed, module, ladder, config, iterations, warmup,
        root_fills_only=True, expected_for=expected_for)
