"""Measurement kinds: the pure functions that execute one sweep point.

:func:`run_point` is the single entry the runner (and its worker
processes) call.  Every kind builds its own cluster from the scenario
parameters — nothing leaks between points, so a point's result is a
pure function of its scenario and the code fingerprint, regardless of
which process executes it or in what order.  That property is what
makes serial and parallel sweeps bit-identical and cached results
trustworthy.

Each kind returns a flat JSON-safe metrics dict.
"""

from __future__ import annotations

from typing import Callable

from repro.exp.modules import build_config, build_module, build_topology

KINDS: dict[str, Callable[[dict], dict]] = {}


def kind(name: str):
    def decorate(fn):
        KINDS[name] = fn
        return fn
    return decorate


def run_point(point: dict) -> dict:
    """Execute one sweep point described as ``{"kind", "params"}``."""
    try:
        fn = KINDS[point["kind"]]
    except KeyError:
        raise ValueError(f"unknown scenario kind {point['kind']!r}") from None
    return fn(point["params"])


def _config(params: dict):
    from repro.config import NIAGARA

    config = build_config(params.get("config")) or NIAGARA
    if params.get("seed") is not None:
        config = config.with_changes(seed=params["seed"])
    return config


@kind("overhead")
def _overhead(p: dict) -> dict:
    from repro.bench.overhead import run_overhead

    res = run_overhead(
        build_module(p["module"]), n_user=p["n_user"],
        total_bytes=p["total_bytes"], iterations=p["iterations"],
        warmup=p["warmup"], config=_config(p))
    return {"mean_time": res.mean_time}


@kind("perceived")
def _perceived(p: dict) -> dict:
    from repro.bench.perceived import run_perceived_bandwidth

    schedule = None
    if p.get("loss"):
        from repro.faults import FaultSchedule

        schedule = FaultSchedule().chunk_loss(p["loss"])
    res = run_perceived_bandwidth(
        build_module(p["module"]), n_user=p["n_user"],
        total_bytes=p["total_bytes"], compute=p["compute"],
        noise_fraction=p["noise_fraction"], iterations=p["iterations"],
        warmup=p["warmup"], config=_config(p), fault_schedule=schedule)
    pair = res.result
    return {
        "perceived_bandwidth": res.perceived_bandwidth,
        "wrs_posted": pair.wrs_posted,
        "retransmits": int(pair.counters.get("ib.retransmits", 0)),
    }


@kind("sweep")
def _sweep(p: dict) -> dict:
    from repro.bench.sweep import run_sweep

    res = run_sweep(
        build_module(p["module"]), grid=tuple(p["grid"]),
        n_threads=p["n_threads"], total_bytes=p["total_bytes"],
        compute=p["compute"], noise_fraction=p["noise_fraction"],
        iterations=p["iterations"], warmup=p["warmup"], config=_config(p))
    return {
        "mean_time": res.mean_time,
        "mean_comm_time": res.mean_comm_time,
        "critical_path_compute": res.critical_path_compute,
    }


@kind("halo")
def _halo(p: dict) -> dict:
    from repro.bench.halo import run_halo

    res = run_halo(
        build_module(p["module"]), grid=tuple(p["grid"]),
        n_threads=p["n_threads"], face_bytes=p["face_bytes"],
        compute=p["compute"], noise_fraction=p["noise_fraction"],
        iterations=p["iterations"], warmup=p["warmup"],
        topology=build_topology(p.get("topology")), config=_config(p))
    return {"mean_time": res.mean_time, "mean_comm_time": res.mean_comm_time}


@kind("stencil")
def _stencil(p: dict) -> dict:
    from repro.coll import per_edge_autotuners, run_stencil

    planner = None
    if p.get("per_edge") is not None:
        autotune_params = dict(p["per_edge"])

        def planner(proc, axes):
            return per_edge_autotuners(autotune_params)

    face_bytes = p["face_bytes"]
    res = run_stencil(
        module=build_module(p.get("module")), planner=planner,
        grid=tuple(p["grid"]), n_threads=p["n_threads"],
        n_partitions=p.get("n_partitions"),
        face_bytes=(face_bytes if isinstance(face_bytes, int)
                    else tuple(face_bytes)),
        compute=p["compute"], noise_fraction=p["noise_fraction"],
        iterations=p["iterations"], warmup=p["warmup"],
        topology=build_topology(p.get("topology")), config=_config(p))
    spreads = [stats["spread"]
               for edges in res.edge_stats.values()
               for stats in edges.values() if stats["spread"] is not None]
    return {
        "mean_time": res.mean_time,
        "mean_comm_time": res.mean_comm_time,
        "max_edge_spread": max(spreads) if spreads else None,
    }


@kind("pallreduce")
def _pallreduce(p: dict) -> dict:
    from repro.bench.coll import run_pallreduce

    res = run_pallreduce(
        build_module(p.get("module")), world=p["world"],
        n_threads=p["n_threads"], n_partitions=p.get("n_partitions"),
        partition_size=p["partition_size"], compute=p["compute"],
        noise_fraction=p["noise_fraction"], iterations=p["iterations"],
        warmup=p["warmup"], topology=build_topology(p.get("topology")),
        config=_config(p))
    return {"mean_time": res.mean_time, "mean_comm_time": res.mean_comm_time}


@kind("arrival_profile")
def _arrival_profile(p: dict) -> dict:
    from repro.bench.pair import run_partitioned_pair
    from repro.mpi.persist_module import PersistSpec
    from repro.profiler import arrival_profile
    from repro.runtime import SingleThreadDelay

    n_user = p["n_user"]
    partition_size = p["total_bytes"] // n_user
    result = run_partitioned_pair(
        PersistSpec, n_user=n_user, partition_size=partition_size,
        compute=p["compute"], noise=SingleThreadDelay(p["noise_fraction"]),
        iterations=p["iterations"], warmup=p["warmup"], config=_config(p))
    rounds = [[t - min(r) for t in r] for r in result.arrival_rounds()]
    profile = arrival_profile(rounds, partition_size=partition_size)
    return {
        "partition_size": profile.partition_size,
        "compute_spans": list(profile.compute_spans),
        "comm_span": profile.comm_span,
    }


@kind("min_delta")
def _min_delta(p: dict) -> dict:
    from repro.bench.pair import run_partitioned_pair
    from repro.core import estimate_min_delta
    from repro.runtime import SingleThreadDelay

    result = run_partitioned_pair(
        build_module(p["module"]), n_user=p["n_user"],
        partition_size=p["total_bytes"] // p["n_user"],
        compute=p["compute"], noise=SingleThreadDelay(p["noise_fraction"]),
        iterations=p["iterations"], warmup=p["warmup"], config=_config(p))
    return {"min_delta": estimate_min_delta(result.arrival_rounds())}


@kind("autotune")
def _autotune(p: dict) -> dict:
    from repro.bench.autotune import run_autotuned_pair

    res = run_autotuned_pair(
        p["autotune"], n_user=p["n_user"], total_bytes=p["total_bytes"],
        compute=p.get("compute", 0.0),
        noise_fraction=p.get("noise_fraction", 0.0),
        iterations=p["iterations"], warmup=p["warmup"], config=_config(p))
    # Caching note: no TuningStore here on purpose — a store would make
    # the point a function of on-disk state, breaking the harness's
    # pure-function-of-scenario contract.  Cross-run persistence is
    # exercised by the autotune tests and the CLI instead.
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


@kind("fleet")
def _fleet(p: dict) -> dict:
    from repro.fleet import JobSpec, run_fleet_with_slowdowns

    jobs = [JobSpec.from_dict(d) for d in p["jobs"]]
    profile = run_fleet_with_slowdowns(
        jobs, placement=p.get("placement", "spread"),
        seed=p.get("seed", 0), config=_config(p))
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


@kind("fleet_rank")
def _fleet_rank(p: dict) -> dict:
    from repro.fleet import run_contended_pair

    return run_contended_pair(
        module=p["module"], level=p["level"],
        n_partitions=p.get("n_partitions", 16),
        partition_size=p.get("partition_size", 64 * 1024),
        iterations=p["iterations"], warmup=p["warmup"],
        compute=p.get("compute", 0.0), seed=p.get("seed", 0),
        config=_config(p))


@kind("fleet_autotune")
def _fleet_autotune(p: dict) -> dict:
    from repro.fleet import run_reconvergence

    res = run_reconvergence(
        p["autotune"], quiet_rounds=p["quiet_rounds"],
        congested_rounds=p["congested_rounds"],
        tail_rounds=p["tail_rounds"],
        n_partitions=p.get("n_partitions", 16),
        partition_size=p.get("partition_size", 64 * 1024),
        compute=p.get("compute", 0.0), seed=p.get("seed", 0),
        config=_config(p))
    # Fold the raw per-round records into a compact trajectory so the
    # result artifact stays readable; everything else passes through.
    res["trajectory"] = [
        [r["round"], r["n_transport"], r["n_qps"], r["delta"],
         r["completion_time"]]
        for r in res.pop("rounds")]
    return res


@kind("model_curve")
def _model_curve(p: dict) -> dict:
    from repro.model import model_curve
    from repro.model.tables import NIAGARA_LOGGP

    times = model_curve(
        NIAGARA_LOGGP, list(p["sizes"]), n_transport=p["n"],
        n_user=p["n"], delay=p["delay"])
    return {"times": [float(t) for t in times]}


@kind("table1")
def _table1(p: dict) -> dict:
    from repro.model.tables import generate_table1

    return {"table": {str(size): n
                      for size, n in generate_table1().items()}}


@kind("serve_bench")
def _serve_bench(p: dict) -> dict:
    from repro.serve.bench import run_serve_bench

    # The service runs out of a temporary directory created and
    # destroyed inside the call, so the point stays a pure function of
    # its scenario (nothing persists between points or processes).
    return run_serve_bench(
        n_clients=p["n_clients"], n_requests=p["n_requests"],
        n_keys=p.get("n_keys", 64), zipf_s=p.get("zipf_s", 1.1),
        p_commit=p.get("p_commit", 0.08),
        burst_len=p.get("burst_len", 32), seed=p.get("seed", 0),
        n_shards=p.get("n_shards", 8),
        cache_capacity=p.get("cache_capacity", 1024),
        negative_ttl=p.get("negative_ttl", 256),
        max_entries_per_shard=p.get("max_entries_per_shard", 0))


@kind("serve_stress")
def _serve_stress(p: dict) -> dict:
    import tempfile

    from repro.serve.stress import run_multiwriter_stress

    # Real writer *processes* race on one entry, so the conflict and
    # audit-read counts depend on OS scheduling.  The invariants
    # (torn_reads == 0, lost_updates == 0, total_commits) are
    # deterministic; only those belong in an experiment's series.
    with tempfile.TemporaryDirectory(prefix="repro-serve-stress-") as tmp:
        res = run_multiwriter_stress(
            tmp, n_writers=p["n_writers"], n_puts=p["n_puts"],
            mode=p.get("mode", "confident"),
            n_shards=p.get("n_shards", 4))
    res.pop("writers")
    return res


@kind("serve_fleet")
def _serve_fleet(p: dict) -> dict:
    import tempfile

    from repro.serve.fleet import run_served_tenants

    with tempfile.TemporaryDirectory(prefix="repro-serve-fleet-") as tmp:
        res = run_served_tenants(
            tmp, autotune_params=p.get("autotune"),
            n_tenants=p.get("n_tenants", 2),
            n_partitions=p.get("n_partitions", 16),
            partition_size=p.get("partition_size", 64 * 1024),
            iterations=p["iterations"], seed=p.get("seed", 0),
            n_shards=p.get("n_shards", 4), config=_config(p))
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
