"""The seven workloads: what each point is, and how one point is run.

:func:`points` is pure data (JSON-safe descriptors derived from the seed), so
the parent can count operations without importing the program.  The
``_run_*`` functions execute one point through the program's public runners
and are only called inside a child interpreter.

Every pass is sized to 1.5-2.3 s on a 2-core box: the driver makes 92 runs
inside 57 minutes, and each run repeats the pass in fresh processes for
``--seconds``, so a shorter pass buys more reps under the same budget.
README.md records where that cut the issue's original sizing.
"""

from __future__ import annotations

import math
import time

KiB = 1024
MiB = 1024 * KiB

#: Every workload ``perfbench run`` knows, in run order.  ``BENCHMARK.json``
#: registers the ones the driver gates; see README.md.
ALL = ("p2p_small", "p2p_large", "sweep3d", "fleet_contended", "p2p_faulted",
       "stencil_tuned", "serve_mixed")

PERSIST = ["persist"]
PLOGGP = ["ploggp", {}]
#: The paper's three modules: part_persist baseline, static PLogGP, δ-timer.
PAPER_MODULES = (PERSIST, PLOGGP, ["timer", {"delta": 35e-6}])
FIXED_4_2 = ["fixed", {"n_transport": 4, "n_qps": 2}]

STENCIL_TOPOLOGY = ["dragonfly+", {"nodes_per_leaf": 4, "leaves_per_group": 2}]
# The policies' own exploration seeds stay fixed: ``--seed`` drives the
# simulated noise they react to, not how much they explore (that moved the
# event count by 15 % from seed to seed).
STENCIL_BANDIT = {"policy": "bandit", "counts": [2, 8, 32], "deltas": [None],
                  "epsilon": 0.3, "decay": 0.85, "bandit_seed": 3}
STENCIL_MUTATION = {"policy": "plan_mutation", "deltas": [None],
                    "epsilon": 0.3, "decay": 0.85, "expand_after": 3,
                    "max_frontier": 10, "bandit_seed": 7}

#: serve_mixed geometry: the working set is 8x the cache so the hit path and
#: the flock + os.replace miss/commit paths both run.
SERVE = {"n_keys": 2048, "n_shards": 8, "cache_capacity": 256,
         "zipf_s": 1.1, "p_commit": 0.1, "warm_requests": 2000,
         "rounds": 6, "requests": 6000}
SERVE_SMOKE = dict(SERVE, n_keys=512, cache_capacity=64, warm_requests=500,
                   rounds=2, requests=3000)


def _kind(module) -> str:
    return "persist" if module[0] == "persist" else "native"


def _pair_points(runner, cells, modules, **common) -> list[dict]:
    """Cross ``cells`` (dicts of runner args) with ``modules``; each native
    point names the persist point of the same cell as its baseline."""
    out = []
    for cell in cells:
        tag = "/".join(f"{k}={v}" for k, v in cell.items())
        for module in modules:
            out.append({
                "id": f"{module[0]}/{tag}", "kind": _kind(module),
                "baseline": (None if _kind(module) == "persist"
                             else f"persist/{tag}"),
                "runner": runner,
                "args": dict(cell, module=module, **common)})
    return out


def points(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The workload's operations, in the order a pass runs them."""
    if workload == "p2p_small":
        grid = [{"n_user": n, "total_bytes": b}
                for n in ((32,) if smoke else (32, 128))
                for b in (4 * KiB, 16 * KiB)]
        return _pair_points("overhead", grid, PAPER_MODULES,
                            iterations=6 if smoke else 30, warmup=2 if smoke else 5)
    if workload == "p2p_large":
        grid = [{"n_user": 32, "total_bytes": b}
                for b in ((2 * MiB, 8 * MiB) if smoke
                          else (2 * MiB, 8 * MiB, 32 * MiB))]
        return _pair_points("overhead", grid, PAPER_MODULES,
                            iterations=6 if smoke else 45, warmup=2 if smoke else 5)
    if workload == "sweep3d":
        grid = [{"total_bytes": b, "noise_fraction": 0.04}
                for b in ((256 * KiB,) if smoke
                          else (256 * KiB, 1 * MiB, 4 * MiB))]
        return _pair_points("sweep", grid, PAPER_MODULES, grid=[4, 4],
                            n_threads=16, compute=1e-3,
                            iterations=1 if smoke else 3, warmup=1)
    if workload == "fleet_contended":
        modules = (FIXED_4_2,) if smoke else (PERSIST, FIXED_4_2)
        return _pair_points("contended", [{"level": 1}], modules,
                            iterations=2 if smoke else 6, warmup=1 if smoke else 2)
    if workload == "p2p_faulted":
        # 30 rounds x >= 31 wire chunks: at p >= 2e-2 a lossless point has
        # probability < 1e-8, so "retransmits > 0" holds on every seed.
        grid = [{"loss": p} for p in ((5e-2,) if smoke else (2e-2, 5e-2))]
        modules = (PERSIST, PLOGGP, ["timer", {"delta": 3e-3}])
        return _pair_points("perceived", grid, modules, n_user=16,
                            total_bytes=8 * MiB,
                            iterations=4 if smoke else 25, warmup=1 if smoke else 5)
    if workload == "stencil_tuned":
        plans = [
            ("fixed", {"module": ["fixed", {"n_transport": 8, "n_qps": 2}]}),
            ("ploggp", {"module": PLOGGP}),
            ("bandit", {"per_edge": STENCIL_BANDIT}),
            ("mutation", {"per_edge": STENCIL_MUTATION}),
        ]
        if smoke:
            plans = plans[1:3]
        common = dict(grid=[4, 4], n_threads=8, n_partitions=32,
                      face_bytes=[64 * KiB, 4 * KiB], compute=1e-3,
                      noise_fraction=0.01, topology=STENCIL_TOPOLOGY,
                      iterations=3 if smoke else 12, warmup=1 if smoke else 2)
        return [{"id": name, "kind": "native", "baseline": None,
                 "runner": "stencil", "args": dict(plan, **common)}
                for name, plan in plans]
    if workload == "serve_mixed":
        return [{"id": "closed-loop", "kind": "serve", "baseline": None,
                 "runner": "serve", "args": dict(SERVE_SMOKE if smoke else SERVE)}]
    raise ValueError(f"unknown workload {workload!r}")


def n_ops(workload: str, seed: int, smoke: bool = False) -> int:
    """Operations one pass attempts: sweep points, or serve requests."""
    pts = points(workload, seed, smoke)
    if workload == "serve_mixed":
        return pts[0]["args"]["rounds"] * pts[0]["args"]["requests"]
    return len(pts)


#: Appended by ``--inject-failure``: a point that raises, for the tests.
INJECTED_FAILURE = {"id": "injected-failure", "kind": "native",
                    "baseline": None, "runner": "raise", "args": {}}


# -- child side: run one simulation point --------------------------------

def _config(seed: int):
    from repro.config import NIAGARA

    return NIAGARA.with_changes(seed=seed)


def _pair_counts(pair) -> dict:
    return {"wrs_posted": pair.wrs_posted or 0,
            "timer_flushes": pair.timer_flushes or 0,
            "retransmits": int(pair.counters.get("ib.retransmits", 0)),
            "rnr_naks": int(pair.counters.get("ib.rnr_naks", 0))}


def _run_overhead(args: dict, seed: int) -> dict:
    from repro.bench import run_overhead
    from repro.exp.modules import build_module

    res = run_overhead(build_module(args["module"]), args["n_user"],
                       args["total_bytes"], iterations=args["iterations"],
                       warmup=args["warmup"], config=_config(seed))
    return {"time_s": res.mean_time, "values": {},
            "counts": _pair_counts(res.result)}


def _run_perceived(args: dict, seed: int) -> dict:
    from repro.bench import run_perceived_bandwidth
    from repro.exp.modules import build_module
    from repro.faults import FaultSchedule

    res = run_perceived_bandwidth(
        build_module(args["module"]), args["n_user"], args["total_bytes"],
        iterations=args["iterations"], warmup=args["warmup"],
        config=_config(seed),
        fault_schedule=FaultSchedule().chunk_loss(args["loss"]))
    counts = _pair_counts(res.result)
    out = {"time_s": args["total_bytes"] / res.perceived_bandwidth,
           "values": {"perceived_bandwidth": res.perceived_bandwidth},
           "counts": counts}
    if counts["retransmits"] <= 0:
        out["error"] = "lossy point saw no retransmit"
    return out


def _run_sweep(args: dict, seed: int) -> dict:
    from repro.bench import run_sweep
    from repro.exp.modules import build_module

    res = run_sweep(build_module(args["module"]), grid=tuple(args["grid"]),
                    n_threads=args["n_threads"],
                    total_bytes=args["total_bytes"], compute=args["compute"],
                    noise_fraction=args["noise_fraction"],
                    iterations=args["iterations"], warmup=args["warmup"],
                    config=_config(seed))
    return {"time_s": res.mean_comm_time,
            "values": {"mean_time": res.mean_time}, "counts": {}}


def _run_contended(args: dict, seed: int) -> dict:
    from repro.fleet.run import run_contended_pair

    res = run_contended_pair(module=args["module"], level=args["level"],
                             iterations=args["iterations"],
                             warmup=args["warmup"], seed=seed)
    return {"time_s": res["mean_time"],
            "values": {"spine_utilization": res["spine_utilization"],
                       "makespan_s": res["makespan"]},
            "counts": {}}


def _run_stencil(args: dict, seed: int) -> dict:
    from repro.coll import per_edge_autotuners, run_stencil
    from repro.exp.modules import build_module, build_topology

    planner = None
    if args.get("per_edge") is not None:
        params = args["per_edge"]

        def planner(proc, axes):
            return per_edge_autotuners(params)

    res = run_stencil(
        module=build_module(args.get("module")), planner=planner,
        grid=tuple(args["grid"]), n_threads=args["n_threads"],
        n_partitions=args["n_partitions"],
        face_bytes=tuple(args["face_bytes"]), compute=args["compute"],
        noise_fraction=args["noise_fraction"], iterations=args["iterations"],
        warmup=args["warmup"], config=_config(seed),
        topology=build_topology(args["topology"]))
    return {"time_s": res.mean_time,
            "values": {"mean_comm_time": res.mean_comm_time},
            "counts": {"retransmits": int(res.counters.get("ib.retransmits", 0)),
                       "rnr_naks": int(res.counters.get("ib.rnr_naks", 0))}}


def _run_raise(args: dict, seed: int) -> dict:
    raise RuntimeError("injected failure")


_RUNNERS = {"overhead": _run_overhead, "perceived": _run_perceived,
            "sweep": _run_sweep, "contended": _run_contended,
            "stencil": _run_stencil, "raise": _run_raise}


def import_runners(workload: str) -> None:
    """Pay the program's imports during set-up, not inside the timed pass."""
    import repro  # noqa: F401
    import repro.exp.modules  # noqa: F401
    if workload == "fleet_contended":
        import repro.fleet.run  # noqa: F401
    elif workload == "stencil_tuned":
        import repro.autotune  # noqa: F401
        import repro.coll  # noqa: F401
    elif workload == "p2p_faulted":
        import repro.faults  # noqa: F401
    elif workload == "serve_mixed":
        import repro.serve.service  # noqa: F401


def run_point(point: dict, seed: int) -> dict:
    """One simulation point: its simulated result, host seconds, verdict.

    A point fails if it raises, misses its invariant, or returns a
    non-finite or non-positive time; the parent adds "differs between
    reps" when it compares the float-hex values.
    """
    start = time.perf_counter()
    try:
        out = _RUNNERS[point["runner"]](point["args"], seed)
    except Exception as exc:  # a failed point is a counted outcome, not a crash
        out = {"time_s": None, "values": {}, "counts": {},
               "error": f"{type(exc).__name__}: {exc}"}
    host_s = time.perf_counter() - start
    t = out["time_s"]
    if "error" not in out and not (isinstance(t, float) and math.isfinite(t)
                                   and t > 0):
        out["error"] = f"non-finite or non-positive time {t!r}"
    values = dict(out["values"], time_s=t)
    return {"id": point["id"], "kind": point["kind"],
            "baseline": point["baseline"], "host_s": host_s,
            "time_s": t, "error": out.get("error"),
            "hex": {k: float(v).hex() for k, v in sorted(values.items())
                    if v is not None},
            "counts": out["counts"]}
