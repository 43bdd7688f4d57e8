"""Measurement kinds: one row per kind of sweep point.

:func:`run_point` is the single entry the runner (and its worker
processes) call: it looks the point's kind up in :data:`KINDS`, turns
the descriptor params into the runner's keyword arguments
(:func:`decode`) and calls the kind's runner.  Every kind builds its own
cluster from the scenario parameters — nothing leaks between points, so
a point's result is a pure function of its scenario and the code
fingerprint, regardless of which process executes it or in what order.
That property is what makes serial and parallel sweeps bit-identical
and cached results trustworthy.

Each kind returns a flat JSON-safe metrics dict.  A runner is called by
name wherever its parameters and result need no translation; the small
adapters below exist only where a kind transforms its input or output.
"""

from __future__ import annotations

import importlib
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.exp.modules import build_config, build_module, build_topology


@dataclass(frozen=True)
class Kind:
    """How one kind of sweep point runs, and where its plan lives."""

    #: A runner as ``(module, function)`` (imported on first use) or an
    #: adapter; called with the decoded params as keywords.
    run: Union[tuple[str, str], Callable[..., Any]]
    #: Attributes of the runner's result the point returns; empty when
    #: the runner returns the metrics dict itself.
    returns: tuple[str, ...] = ()
    #: The decoded arguments the runner takes: a live ``module``, a
    #: ``config`` with the point's ``seed`` folded in, and the ``seed``.
    takes: tuple[str, ...] = ("module", "config")
    #: The params holding the point's module, partition count and total
    #: bytes (``repro-bench plan``); None for a kind that lowers no plan.
    #: A module param other than ``module`` holds autotune params.
    plan: Optional[tuple[str, str, str]] = None


def decode(params: dict, takes: tuple[str, ...]) -> dict:
    """A point's JSON params as its runner's keyword arguments.

    Descriptors become live objects (``module``, ``topology``, ``config``
    plus ``seed``, as far as ``takes`` lists them), ``grid`` becomes a
    tuple; everything else passes through by name.
    """
    args = dict(params)
    seed = args.pop("seed", None)
    if "config" in takes:
        from repro.config import NIAGARA

        config = build_config(args.pop("config", None)) or NIAGARA
        args["config"] = (config if seed is None
                          else config.with_changes(seed=seed))
    if "seed" in takes and seed is not None:
        args["seed"] = seed
    if "module" in takes and "module" in args:
        args["module"] = build_module(args["module"])
    if "topology" in args:
        args["topology"] = build_topology(args["topology"])
    if "grid" in args:
        args["grid"] = tuple(args["grid"])
    return args


def run_point(point: dict) -> dict:
    """Execute one sweep point described as ``{"kind", "params"}``."""
    try:
        row = KINDS[point["kind"]]
    except KeyError:
        raise ValueError(f"unknown scenario kind {point['kind']!r}") from None
    run = row.run
    if isinstance(run, tuple):
        module, name = run
        run = getattr(importlib.import_module(module), name)
    res = run(**decode(point["params"], row.takes))
    if row.returns:
        return {name: getattr(res, name) for name in row.returns}
    return res


def _perceived(loss: float = 0.0, **args) -> dict:
    from repro.bench.perceived import run_perceived_bandwidth

    if loss:
        from repro.faults import FaultSchedule

        args["fault_schedule"] = FaultSchedule().chunk_loss(loss)
    res = run_perceived_bandwidth(**args)
    pair = res.result
    return {
        "perceived_bandwidth": res.perceived_bandwidth,
        "wrs_posted": pair.wrs_posted,
        "retransmits": int(pair.counters.get("ib.retransmits", 0)),
    }


def _stencil(face_bytes, per_edge: Optional[dict] = None, **args) -> dict:
    from repro.coll import per_edge_autotuners, run_stencil

    if per_edge is not None:
        def planner(proc, axes):
            return per_edge_autotuners(per_edge)

        args["planner"] = planner
    res = run_stencil(
        face_bytes=(face_bytes if isinstance(face_bytes, int)
                    else tuple(face_bytes)), **args)
    spreads = [stats["spread"]
               for edges in res.edge_stats.values()
               for stats in edges.values() if stats["spread"] is not None]
    return {
        "mean_time": res.mean_time,
        "mean_comm_time": res.mean_comm_time,
        "max_edge_spread": max(spreads) if spreads else None,
    }


def _noisy_pair(module, n_user: int, total_bytes: int,
                noise_fraction: float, **args):
    """A partitioned pair with one laggard thread (Figs. 10-12)."""
    from repro.bench.pair import run_partitioned_pair
    from repro.runtime import SingleThreadDelay

    return run_partitioned_pair(
        module, n_user=n_user, partition_size=total_bytes // n_user,
        noise=SingleThreadDelay(noise_fraction), **args)


def _arrival_profile(n_user: int, total_bytes: int, **args) -> dict:
    from repro.mpi.persist_module import PersistSpec
    from repro.profiler import arrival_profile

    result = _noisy_pair(PersistSpec, n_user, total_bytes, **args)
    rounds = [[t - min(r) for t in r] for r in result.arrival_rounds()]
    profile = arrival_profile(rounds,
                              partition_size=total_bytes // n_user)
    return {
        "partition_size": profile.partition_size,
        "compute_spans": list(profile.compute_spans),
        "comm_span": profile.comm_span,
    }


def _min_delta(**args) -> dict:
    from repro.core import estimate_min_delta

    return {"min_delta":
            estimate_min_delta(_noisy_pair(**args).arrival_rounds())}


def _autotune(autotune: dict, **args) -> dict:
    from repro.bench.autotune import run_autotuned_pair

    # Caching note: no TuningStore here on purpose — a store would make
    # the point a function of on-disk state, breaking the harness's
    # pure-function-of-scenario contract.  Cross-run persistence is
    # exercised by the autotune tests and the CLI instead.
    res = run_autotuned_pair(autotune, **args)
    return {
        "mean_time": res.mean_time,
        "mean_comm_time": res.mean_comm_time,
        "perceived_bandwidth": res.mean_perceived_bandwidth,
        "best_plan": res.best_plan,
        "best_plan_time": res.best_plan_time,
        "final_time": res.final_time,
        "converged_round": res.converged_round,
        "explored": res.explored,
        "round_times": [r["completion_time"] for r in res.round_plans],
        "wrs_posted": res.result.wrs_posted,
        "timer_flushes": res.result.timer_flushes,
    }


def _fleet(jobs: list, placement: str = "spread", **args) -> dict:
    from repro.fleet import JobSpec, run_fleet_with_slowdowns

    profile = run_fleet_with_slowdowns(
        [JobSpec.from_dict(d) for d in jobs], placement=placement, **args)
    spine = {name: stats["utilization"]
             for name, stats in profile.links.items()
             if name.startswith("global")}
    return {
        "makespan": profile.makespan,
        "slowdowns": dict(profile.slowdowns),
        "mean_iterations": {
            name: view.mean_iteration
            for name, view in profile.tenants.items()
            if view.mean_iteration is not None},
        "spine_utilization": max(spine.values()) if spine else 0.0,
        "link_histogram": profile.link_histogram(),
        "busiest_links": [list(pair) for pair in profile.busiest_links()],
    }


def _fleet_autotune(autotune: dict, **args) -> dict:
    from repro.fleet import run_reconvergence

    res = run_reconvergence(autotune, **args)
    # Fold the raw per-round records into a compact trajectory so the
    # result artifact stays readable; everything else passes through.
    res["trajectory"] = [
        [r["round"], r["n_transport"], r["n_qps"], r["delta"],
         r["completion_time"]]
        for r in res.pop("rounds")]
    return res


def _model_curve(sizes: list, n: int, delay: float) -> dict:
    from repro.model import model_curve
    from repro.model.tables import NIAGARA_LOGGP

    times = model_curve(NIAGARA_LOGGP, sizes, n_transport=n, n_user=n,
                        delay=delay)
    return {"times": [float(t) for t in times]}


def _table1() -> dict:
    from repro.model.tables import generate_table1

    return {"table": {str(size): n
                      for size, n in generate_table1().items()}}


# The serve kinds run out of a temporary directory created and destroyed
# inside the call, so the point stays a pure function of its scenario
# (nothing persists between points or processes); ``serve_bench`` makes
# its own.


def _serve_stress(**args) -> dict:
    from repro.serve.stress import run_multiwriter_stress

    # Real writer *processes* race on one entry, so the conflict and
    # audit-read counts depend on OS scheduling.  The invariants
    # (torn_reads == 0, lost_updates == 0, total_commits) are
    # deterministic; only those belong in an experiment's series.
    with tempfile.TemporaryDirectory(prefix="repro-serve-stress-") as tmp:
        res = run_multiwriter_stress(tmp, **args)
    res.pop("writers")
    return res


def _serve_fleet(autotune: Optional[dict] = None, **args) -> dict:
    from repro.serve.fleet import run_served_tenants

    with tempfile.TemporaryDirectory(prefix="repro-serve-fleet-") as tmp:
        res = run_served_tenants(tmp, autotune_params=autotune, **args)
    return {
        "bit_identical": res["bit_identical"],
        "warm_skipped_exploration": res["warm_skipped_exploration"],
        "served_plan": res["served_plan"],
        "tenant_explored": [t["explored"] for t in res["tenants"]],
        "tenant_mean_iterations": [t["mean_iteration"]
                                   for t in res["tenants"]],
        "commits": res["service"]["commits"],
        "conflicts": res["service"]["conflicts"],
    }


_PAIR = ("module", "n_user", "total_bytes")
_SEEDED = ("config", "seed")

#: Every scenario kind (``Scenario.kind``) and how it runs.
KINDS: dict[str, Kind] = {
    "overhead": Kind(("repro.bench.overhead", "run_overhead"),
                     ("mean_time",), plan=_PAIR),
    "perceived": Kind(_perceived, plan=_PAIR),
    "sweep": Kind(("repro.bench.sweep", "run_sweep"),
                  ("mean_time", "mean_comm_time", "critical_path_compute"),
                  plan=("module", "n_threads", "total_bytes")),
    "halo": Kind(("repro.bench.halo", "run_halo"),
                 ("mean_time", "mean_comm_time"),
                 plan=("module", "n_threads", "face_bytes")),
    "stencil": Kind(_stencil, plan=("module", "n_partitions", "face_bytes")),
    "arrival_profile": Kind(_arrival_profile),
    "min_delta": Kind(_min_delta, plan=_PAIR),
    "autotune": Kind(_autotune, plan=("autotune", "n_user", "total_bytes")),
    "fleet": Kind(_fleet, takes=_SEEDED),
    "fleet_rank": Kind(("repro.fleet", "run_contended_pair"),
                       takes=_SEEDED),
    "fleet_autotune": Kind(_fleet_autotune, takes=_SEEDED),
    "model_curve": Kind(_model_curve, takes=()),
    "table1": Kind(_table1, takes=()),
    "serve_bench": Kind(("repro.serve.bench", "run_serve_bench"),
                        takes=("seed",)),
    "serve_stress": Kind(_serve_stress, takes=()),
    "serve_fleet": Kind(_serve_fleet, takes=_SEEDED),
}
