"""Chaos workloads, and one chaos run as a measurement point.

A workload is a function ``fn(schedule, seed, module) -> RunReport``
that runs a real communication pattern with backed buffers under a
fault schedule; :data:`WORKLOADS` maps each name to the node count its
schedules target and that function:

* ``ext_stencil`` — the 2-D halo exchange from :mod:`repro.coll`
  (per-face integrity every iteration);
* ``pallreduce`` — the binomial-tree partitioned allreduce, verified
  against the wrapping uint8 sum of every rank's contribution;
* ``pbcast`` — the partitioned broadcast, verified against the root's
  fill pattern on every rank;
* ``fleet`` — two tenants sharing a flapping spine link
  (:mod:`repro.fleet.chaos`).

All of them run on a *chaos recovery config*: short retry budgets and a
quick reconnect walk, so injected faults actually exhaust retries and
exercise replay/reconnect inside a few-millisecond virtual horizon.

:func:`run_chaos` is the ``chaos`` kind of :mod:`repro.exp.kinds`: run
``index`` of a campaign seeded ``seed``, reproducible from those two
alone.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import partial
from typing import Optional

from repro.bench.coll import run_pcoll
from repro.chaos.generators import generate_schedule, schedule_to_dict
from repro.chaos.invariants import RunReport, check_invariants
from repro.coll import ladder_modules, run_stencil
from repro.config import NIAGARA, ClusterConfig
from repro.exp.modules import build_module
from repro.sim.rng import RngStreams
from repro.units import KiB, ms, us

#: The module descriptor a campaign's edges run by default: the PLogGP
#: aggregator with a 1 ms delay (``repro-bench chaos --module native``).
NATIVE = ["ploggp", {"delay": ms(1)}]


def chaos_config(seed: int,
                 base: Optional[ClusterConfig] = None) -> ClusterConfig:
    """Recovery-friendly config with the run's root seed baked in."""
    base = base if base is not None else NIAGARA
    return base.with_changes(
        seed=int(seed),
        nic=replace(base.nic, retry_cnt=2, rnr_retry=2, qp_timeout=1),
        part=replace(base.part, reconnect_delay=us(200)),
    )


def run_ext_stencil(schedule, seed, module, config=None, iterations=4,
                    warmup=1) -> RunReport:
    """The repro.coll halo exchange, backed, with per-face integrity."""
    res = run_stencil(
        module=module,
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


def run_chaos_tree(collective, schedule, seed, module, config=None,
                   iterations=4, warmup=1, world=5) -> RunReport:
    """A backed tree ``collective`` (``pallreduce``/``pbcast``), every
    rank's bytes checked every round."""
    res = run_pcoll(
        module, collective, world=world, n_threads=2, n_partitions=4,
        partition_size=4 * KiB, compute=2e-4, noise_fraction=0.01,
        iterations=iterations, warmup=warmup,
        config=chaos_config(seed, config), faults=schedule, backed=True)
    return RunReport(
        workload=collective, completed=res.completed,
        duration=float(sum(res.times)) if res.completed else 0.0,
        integrity_failures=res.integrity_failures, counters=res.counters,
        leaks=res.leaks, meta={"world": world, "iterations": iterations})


def run_chaos_fleet(schedule, seed, module, **options) -> RunReport:
    """:func:`repro.fleet.chaos.run_fleet_workload`, imported on first
    use (that module imports this package)."""
    from repro.fleet.chaos import run_fleet_workload

    return run_fleet_workload(schedule, seed, module, **options)


#: Workload name -> (node count its schedules target, function).
WORKLOADS = {
    "ext_stencil": (4, run_ext_stencil),
    "pallreduce": (5, partial(run_chaos_tree, "pallreduce")),
    "pbcast": (5, partial(run_chaos_tree, "pbcast")),
    "fleet": (8, run_chaos_fleet),
}


def run_chaos(workload: str, fault: str, seed: int, index: int,
              horizon: float = 2.5e-3, max_duration: float = 1.0,
              module=NATIVE, ladder: bool = False) -> dict:
    """Run ``index`` of a campaign seeded ``seed``: its failure bundle.

    The run draws its schedule and its cluster seed from the stream
    ``chaos.{workload}.run{index}``, runs the workload on ``module`` (a
    descriptor; ``ladder`` wraps every edge in the degradation ladder),
    turns a raised error into a failed run, and checks the invariants.
    The bundle is JSON-safe: the inputs, the schedule as run, the
    violations (empty: every invariant held) and the run's report.
    """
    n_nodes, fn = WORKLOADS[workload]
    rng = RngStreams(seed).stream(f"chaos.{workload}.run{index}")
    schedule = generate_schedule(fault, rng, n_nodes=n_nodes,
                                 horizon=horizon)
    run_seed = int(rng.integers(1, 1 << 31))
    try:
        edges = build_module(module)
        report = fn(schedule, run_seed,
                    ladder_modules(edges) if ladder else edges)
    except Exception as exc:
        # A raised error is itself an invariant violation (runs on a
        # reconnecting fabric must degrade, not abort); capture it
        # structurally so the bundle explains the abort.  Its context
        # (an edge tuple, partition runs) goes through JSON here, so a
        # fresh bundle equals its cached copy.
        context = json.dumps(getattr(exc, "context", None) or {})
        report = RunReport(
            workload=workload, completed=False,
            meta={"error": f"{type(exc).__name__}: {exc}",
                  "context": json.loads(context)})
    return {
        "index": index,
        "workload": workload,
        "kind": fault,
        "seed": run_seed,
        "schedule": schedule_to_dict(schedule),
        "violations": check_invariants(report, max_duration=max_duration),
        "completed": report.completed,
        "duration": report.duration,
        "integrity_failures": report.integrity_failures,
        "counters": dict(report.counters),
        "leaks": list(report.leaks),
        "meta": dict(report.meta),
    }
