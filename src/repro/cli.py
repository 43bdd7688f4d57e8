"""Command-line interface: run reproduction experiments from the shell.

Installed as ``repro-bench`` (or ``python -m repro.cli``)::

    repro-bench table1
    repro-bench model --delay-ms 4
    repro-bench overhead --n-user 32 --sizes 64KiB,512KiB,4MiB
    repro-bench perceived --n-user 32 --sizes 8MiB,32MiB
    repro-bench sweep --grid 4x4 --sizes 256KiB,1MiB --noise 0.01
    repro-bench stencil --grid 4x4 --faces 64KiB,4KiB --aggregator per-edge
    repro-bench netgauge --sizes 4KiB,64KiB,1MiB
    repro-bench tuning-table --n-user 16 --sizes 64KiB,1MiB
    repro-bench autotune tune --sizes 256KiB,2MiB --store results/store
    repro-bench autotune show --store results/store
    repro-bench serve stats --root results/serve-store
    repro-bench serve warm --root results/serve-store --source results/store
    repro-bench serve bench --clients 400 --requests 4000 --zipf 1.1
    repro-bench chaos --runs 50 --seed 7 --ladder --bundle-dir results/chaos
    repro-bench fleet rank --levels 0,1,2 --transports 4,8,16
    repro-bench fleet profile --jobs pair:2,halo:3 --background 1
    repro-bench fleet retune --policy bandit --trajectory

The registered paper experiments run through the ``bench`` group
(see ``docs/BENCHMARKS.md``)::

    repro-bench bench list
    repro-bench bench run fig06 fig08 --profile fast --jobs 4
    repro-bench bench compare BENCH_fig06.json baseline/BENCH_fig06.json

and the ``plan`` group renders the communication-plan IR each
experiment's points lower to (see ``docs/PLAN_IR.md``)::

    repro-bench plan show fig08 --profile fast
    repro-bench plan diff fig08 --baseline-profile paper
    repro-bench plan diff ext_stencil ext_autotune

Sizes accept ``B``/``KiB``/``MiB``/``GiB`` suffixes.  Results print as
plain-text tables; ``bench run`` also writes versioned JSON artifacts
and exits 1 when a run breaks one of its experiment's guidelines.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.units import KiB, MiB, GiB, fmt_bytes, fmt_time, ms, us


def parse_size(text: str) -> int:
    """'64KiB' -> 65536; an argparse ``type=`` (bad text is usage)."""
    text = text.strip()
    try:
        for suffix, mult in (("GiB", GiB), ("MiB", MiB), ("KiB", KiB),
                             ("B", 1)):
            if text.endswith(suffix):
                size = int(float(text[: -len(suffix)]) * mult)
                break
        else:
            size = int(text)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"bad size {text!r}") from None
    if size < 1:
        raise argparse.ArgumentTypeError(f"size must be >= 1B, got {text!r}")
    return size


def parse_sizes(text: str) -> list[int]:
    """'4KiB,1MiB' -> [4096, 1048576]; an argparse ``type=``."""
    sizes = [parse_size(part) for part in text.split(",") if part.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError(f"no sizes in {text!r}")
    return sizes


def _split_evenly(sizes: Sequence[int], parts: int) -> None:
    """Every size must split into ``parts`` equal partitions: checked
    before anything is simulated, so a bad pair is a usage error."""
    from repro.mem.buffer import partition_size_of

    for size in sizes:
        try:
            partition_size_of(size, parts)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def parse_dims(text: str) -> tuple[int, ...]:
    """'2x2x2' -> (2, 2, 2): a 2-D or 3-D rank grid of positive extents;
    an argparse ``type=`` (bad text is usage)."""
    try:
        dims = tuple(int(part) for part in text.split("x") if part)
    except ValueError:
        dims = ()
    if len(dims) not in (2, 3) or min(dims) < 1:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r} (want 2-D or 3-D, e.g. 4x4 or 2x2x2)")
    return dims


def parse_grid(text: str) -> tuple[int, int]:
    """'4x8' -> (4, 8): the 2-D case of :func:`parse_dims`."""
    dims = parse_dims(text)
    if len(dims) != 2:
        raise argparse.ArgumentTypeError(f"bad 2-D grid {text!r}")
    return dims


def parse_counts(text: str) -> list[int]:
    """'0,1,2' -> [0, 1, 2]: non-negative counts; an argparse ``type=``."""
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        counts = [-1]
    if not counts or min(counts) < 0:
        raise argparse.ArgumentTypeError(
            f"bad counts {text!r} (want non-negative integers)")
    return counts


def non_negative_float(text: str) -> float:
    """``text`` as a finite float >= 0; an argparse ``type=``."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"must be finite and >= 0, got {text}")
    return value


def positive_float(text: str) -> float:
    """``text`` as a finite float > 0; an argparse ``type=``."""
    value = non_negative_float(text)
    if value == 0:
        raise ValueError(f"must be > 0, got {text}")
    return value


def _names(text: str, have: Sequence[str], what: str) -> tuple[str, ...]:
    """Comma list ``text`` as names drawn from ``have`` (else usage)."""
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    bad = sorted(set(names) - set(have))
    if bad or not names:
        raise ConfigError(f"unknown {what}(s): {', '.join(bad) or repr(text)}"
                          f" (have: {', '.join(have)})")
    return names


def cmd_table1(args) -> int:
    from repro.bench.reporting import format_table
    from repro.model.tables import TABLE1_PAPER, generate_table1

    got = generate_table1()
    rows = [[fmt_bytes(size), want, got[size],
             "ok" if got[size] == want else "MISMATCH"]
            for size, want in TABLE1_PAPER.items()]
    print(format_table(["aggregate size", "paper", "model", ""], rows))
    return 0 if all(got[s] == w for s, w in TABLE1_PAPER.items()) else 1


def cmd_model(args) -> int:
    from repro.bench.reporting import format_table
    from repro.model import model_curve
    from repro.model.tables import NIAGARA_LOGGP

    counts = [1, 2, 4, 8, 16, 32]
    sizes = args.sizes
    curves = {
        n: model_curve(NIAGARA_LOGGP, sizes, n_transport=n, n_user=n,
                       delay=ms(args.delay_ms))
        for n in counts
    }
    rows = []
    for i, size in enumerate(sizes):
        rows.append([fmt_bytes(size)]
                    + [fmt_time(curves[n][i]) for n in counts])
    print(format_table(["size"] + [f"{n}p" for n in counts], rows))
    return 0


def cmd_overhead(args) -> int:
    from repro.bench.overhead import overhead_speedup_series
    from repro.bench.reporting import format_speedup_series
    from repro.exp.modules import build_module

    _split_evenly(args.sizes, args.n_user)
    agg = build_module(["noagg"] if args.aggregator == "none" else [
        args.aggregator, {"delay": ms(args.delay_ms),
                          "delta": us(args.delta_us)}])
    speedups = overhead_speedup_series(
        agg, n_user=args.n_user, sizes=args.sizes,
        iterations=args.iterations, warmup=args.warmup)
    print(f"overhead speedup over part_persist, {args.n_user} partitions")
    if args.chart:
        from repro.viz import bar_chart

        print(bar_chart({fmt_bytes(s): round(v, 2)
                         for s, v in speedups.items()},
                        unit="x", reference=1.0))
    else:
        print(format_speedup_series({args.aggregator: speedups}))
    return 0


def cmd_perceived(args) -> int:
    from repro.bench.perceived import (
        run_perceived_bandwidth,
        single_thread_line,
    )
    from repro.bench.reporting import format_bandwidth_series
    from repro.exp.modules import build_module

    _split_evenly(args.sizes, args.n_user)
    params = {"delay": ms(args.delay_ms), "delta": us(args.delta_us)}
    designs = {
        "persist": None,
        "ploggp": build_module(["ploggp", params]),
        "timer": build_module(["timer", params]),
    }
    series = {name: {} for name in designs}
    for size in args.sizes:
        for name, module in designs.items():
            series[name][size] = run_perceived_bandwidth(
                module, n_user=args.n_user, total_bytes=size,
                compute=ms(args.compute_ms), noise_fraction=args.noise,
                iterations=args.iterations,
                warmup=args.warmup).perceived_bandwidth
    print(f"perceived bandwidth, {args.n_user} partitions, "
          f"{args.compute_ms}ms compute, {args.noise:.0%} noise")
    if args.chart:
        from repro.viz import bar_chart

        for size in args.sizes:
            print(f"\n{fmt_bytes(size)}:")
            print(bar_chart(
                {name: round(series[name][size] / 2**30, 1)
                 for name in series},
                unit="GiB/s",
                reference=single_thread_line() / 2**30))
    else:
        print(format_bandwidth_series(series, reference=single_thread_line()))
    return 0


def cmd_sweep(args) -> int:
    from repro.bench.reporting import format_speedup_series
    from repro.bench.sweep import run_sweep
    from repro.exp.modules import build_module

    grid = args.grid
    _split_evenly(args.sizes, args.threads)
    params = {"delay": ms(args.delay_ms), "delta": us(args.delta_us)}
    designs = {
        "ploggp": build_module(["ploggp", params]),
        "timer": build_module(["timer", params]),
    }
    series = {name: {} for name in designs}
    for size in args.sizes:
        base = run_sweep(None, grid=grid, n_threads=args.threads,
                         total_bytes=size, compute=ms(args.compute_ms),
                         noise_fraction=args.noise,
                         iterations=args.iterations, warmup=args.warmup)
        for name, module in designs.items():
            ours = run_sweep(module, grid=grid, n_threads=args.threads,
                             total_bytes=size, compute=ms(args.compute_ms),
                             noise_fraction=args.noise,
                             iterations=args.iterations, warmup=args.warmup)
            series[name][size] = base.mean_comm_time / ours.mean_comm_time
    cores = grid[0] * grid[1] * args.threads
    print(f"sweep3d comm speedup over part_persist, {grid[0]}x{grid[1]} "
          f"ranks x {args.threads} threads = {cores} cores")
    if args.chart:
        from repro.viz import grouped_bars

        print(grouped_bars({
            fmt_bytes(size): {name: series[name][size] for name in series}
            for size in args.sizes
        }))
    else:
        print(format_speedup_series(series))
    return 0


def cmd_stencil(args) -> int:
    from repro.bench.reporting import format_table
    from repro.coll import per_edge_autotuners, run_stencil
    from repro.exp.modules import build_module

    grid = args.grid
    faces = args.faces
    if args.partitions % args.threads:
        raise ConfigError(f"{args.partitions} partitions not divisible by "
                          f"{args.threads} threads")
    _split_evenly(faces, args.partitions)
    kwargs = dict(
        grid=grid, n_threads=args.threads, n_partitions=args.partitions,
        face_bytes=(faces[0] if len(faces) == 1 else tuple(faces)),
        compute=ms(args.compute_ms), noise_fraction=args.noise,
        iterations=args.iterations, warmup=args.warmup)
    base = run_stencil(**kwargs)
    if args.aggregator == "per-edge":
        counts = ([c for c in (2, 8, 32) if c <= args.partitions]
                  or [args.partitions])
        params = {"policy": "bandit", "counts": counts,
                  "deltas": [None], "bandit_seed": 3}

        def planner(proc, axes):
            return per_edge_autotuners(params)

        ours = run_stencil(planner=planner, **kwargs)
    else:
        ours = run_stencil(
            module=build_module([args.aggregator, {
                "delay": ms(args.delay_ms), "delta": us(args.delta_us)}]),
            **kwargs)
    print(f"stencil halo exchange, {'x'.join(map(str, grid))} ranks x "
          f"{args.threads} threads, {args.partitions} partitions/face")
    rows = [
        ["part_persist", fmt_time(base.mean_time),
         fmt_time(base.mean_comm_time), ""],
        [args.aggregator, fmt_time(ours.mean_time),
         fmt_time(ours.mean_comm_time),
         f"{base.mean_comm_time / ours.mean_comm_time:.2f}x"],
    ]
    print(format_table(["design", "iter time", "comm time", "speedup"],
                       rows))
    if args.plans:
        for nbr, desc in sorted(ours.plans.get(0, {}).items()):
            print(f"rank 0 -> rank {nbr}: {desc}")
    return 0


def cmd_netgauge(args) -> int:
    from repro.bench.reporting import format_table
    from repro.model.netgauge import measure_loggp

    table = measure_loggp(sizes=args.sizes, rounds=args.iterations)
    rows = []
    for size in table.sizes:
        p = table.lookup(size)
        rows.append([fmt_bytes(size), fmt_time(p.L), fmt_time(p.o_s),
                     fmt_time(p.o_r), fmt_time(p.g),
                     f"{p.bandwidth / GiB:.2f}GiB/s"])
    print(format_table(["size", "L", "o_s", "o_r", "g", "1/G"], rows))
    return 0


def cmd_tuning_table(args) -> int:
    from repro.bench.reporting import format_table
    from repro.core.tuning_table import build_tuning_table

    _split_evenly(args.sizes, args.n_user)
    table = build_tuning_table(
        n_user_counts=[args.n_user],
        message_sizes=args.sizes,
        iterations=args.iterations,
        warmup=args.warmup)
    rows = []
    for (n_user, size), (n_transport, n_qps) in sorted(table.entries.items()):
        rows.append([n_user, fmt_bytes(size), n_transport, n_qps])
    print(format_table(
        ["user partitions", "message size", "transport partitions", "QPs"],
        rows))
    return 0


def cmd_chaos(args) -> int:
    import json
    import os

    from repro.chaos import (
        KINDS,
        CampaignSpec,
        failure_bundle,
        format_campaign,
        run_campaign,
        workload_names,
    )

    spec = CampaignSpec(
        workloads=_names(args.workloads, workload_names(), "workload"),
        runs=args.runs, seed=args.seed,
        kinds=_names(args.kinds, KINDS, "fault kind"),
        horizon=ms(args.horizon_ms), module=args.module,
        ladder=args.ladder)
    progress = None if args.quiet else (
        lambda msg: print(f"  {msg}", file=sys.stderr))
    report = run_campaign(spec, progress=progress)
    print(format_campaign(report))
    if args.bundle_dir:
        os.makedirs(args.bundle_dir, exist_ok=True)
        for outcome in report.failures():
            path = os.path.join(
                args.bundle_dir,
                f"chaos-{outcome.workload}-run{outcome.index}.json")
            with open(path, "w") as fh:
                json.dump(failure_bundle(outcome), fh, indent=2,
                          sort_keys=True)
            print(f"wrote {path}")
    return 0 if report.ok else 1


def _fleet_designs(transports: list[int], n_qps: int) -> list[tuple]:
    return [("persist", ("persist",))] + [
        (f"T={t}", ("fixed", (("n_qps", n_qps), ("n_transport", t))))
        for t in transports]


def cmd_fleet_rank(args) -> int:
    from repro.bench.reporting import format_table
    from repro.fleet import run_contended_pair

    designs = _fleet_designs(args.transports, args.qps)
    rows = []
    for level in args.levels:
        cells = {}
        spine = 0.0
        for name, module in designs:
            res = run_contended_pair(
                module=module, level=level,
                n_partitions=args.partitions,
                partition_size=args.partition_size,
                iterations=args.iterations, warmup=args.warmup,
                seed=args.seed)
            cells[name] = res["mean_time"]
            spine = max(spine, res["spine_utilization"])
        best = min(cells, key=cells.get)
        rows.append([level, *(fmt_time(cells[n]) for n, _ in designs),
                     best, f"{spine:.0%}"])
    print(f"partitioned-pair ranking vs spine contention "
          f"({args.partitions}x{fmt_bytes(args.partition_size)} per "
          f"iteration)")
    print(format_table(
        ["bg tenants", *(n for n, _ in designs), "best", "spine util"],
        rows))
    return 0


def cmd_fleet_profile(args) -> int:
    from repro.bench.reporting import format_table
    from repro.fleet import (
        JobSpec,
        background_jobs,
        run_fleet_with_slowdowns,
    )

    jobs = []
    for i, part in enumerate(spec.strip()
                             for spec in args.jobs.split(",")
                             if spec.strip()):
        kind, _, ranks = part.partition(":")
        try:
            n_ranks = int(ranks or 2)
        except ValueError:
            raise ConfigError(f"bad --jobs entry {part!r} "
                              f"(want kind:ranks)") from None
        jobs.append(JobSpec(
            name=f"{kind}{i}", kind=kind, n_ranks=n_ranks,
            n_partitions=args.partitions,
            partition_size=args.partition_size,
            iterations=args.iterations, warmup=args.warmup))
    jobs += background_jobs(args.background, seed=args.seed + 1)
    profile = run_fleet_with_slowdowns(jobs, placement=args.placement,
                                       seed=args.seed)
    rows = []
    for name, view in profile.tenants.items():
        mean = view.mean_iteration
        slow = profile.slowdowns.get(name)
        rows.append([
            name, view.kind, ",".join(str(n) for n in view.nodes),
            fmt_time(mean) if mean is not None else "-",
            f"{slow:.2f}x" if slow is not None else "-",
        ])
    print(f"fleet profile: {len(jobs)} tenants, {args.placement} "
          f"placement, makespan {fmt_time(profile.makespan)}")
    print(format_table(
        ["tenant", "kind", "nodes", "iter time", "slowdown"], rows))
    busiest = ", ".join(f"{name} {util:.0%}"
                        for name, util in profile.busiest_links())
    print(f"busiest links: {busiest}")
    return 0


def cmd_fleet_retune(args) -> int:
    from repro.bench.reporting import format_table
    from repro.fleet import run_reconvergence

    if args.policy == "bandit":
        params = {"policy": "bandit", "counts": [4, 16], "deltas": [None],
                  "epsilon": 0.3, "decay": 0.9, "bandit_seed": 3,
                  "window": args.window}
    else:
        params = {"policy": "plan_mutation", "deltas": [None],
                  "epsilon": 0.3, "decay": 0.85, "bandit_seed": 7,
                  "expand_after": 3, "max_frontier": 10,
                  "window": args.window}
    congested = args.congested_rounds
    if congested is None:
        congested = 24 if args.policy == "bandit" else 30
    res = run_reconvergence(
        params, quiet_rounds=args.quiet_rounds,
        congested_rounds=congested,
        tail_rounds=args.tail_rounds, compute=us(args.compute_us),
        seed=args.seed)

    def plan_str(plan):
        if plan is None:
            return "-"
        t, q, delta = plan
        suffix = f" d={fmt_time(delta)}" if delta is not None else ""
        return f"T={t} QP={q}{suffix}"

    rows = [
        ["quiet-best plan", plan_str(res["quiet_best"])],
        ["congested-best plan", plan_str(res["congested_best"])],
        ["plan changed", "yes" if res["plan_changed"] else "no"],
        ["re-converged at round", str(res["reconverged_round"])],
        ["rounds to re-converge", str(res["rounds_to_reconverge"])],
        ["regret vs congested-best",
         fmt_time(res["regret"]) if res["regret"] is not None else "-"],
        ["adapted", "yes" if res["adapted"] else "NO"],
    ]
    print(f"live re-tuning [{args.policy}]: neighbor arrives at round "
          f"{res['arrive_round']}, departs at {res['depart_round']}")
    print(format_table(["re-convergence", "value"], rows))
    if args.trajectory:
        rows = [[r["round"],
                 plan_str((r["n_transport"], r["n_qps"], r["delta"])),
                 fmt_time(r["completion_time"])
                 if r["completion_time"] is not None else "-"]
                for r in res["rounds"]]
        print(format_table(["round", "plan", "completion"], rows))
    return 0 if res["adapted"] else 1


def cmd_bench_list(args) -> int:
    from repro.bench.reporting import format_table
    from repro.exp import all_experiments, get_profile
    from repro.exp.profiles import PROFILES

    profiles = sorted(PROFILES)
    rows = []
    for experiment in all_experiments():
        row = [experiment.name, experiment.title, ", ".join(profiles)]
        if args.points:
            for profile in profiles:
                spec = experiment.build(get_profile(profile))
                row.append(len(spec.points))
        rows.append(row)
    headers = ["name", "title", "profiles"]
    if args.points:
        headers += [f"{name} pts" for name in profiles]
    print(format_table(headers, rows))
    return 0


def cmd_autotune_tune(args) -> int:
    from repro.autotune import TuningStore
    from repro.bench.autotune import run_autotuned_pair
    from repro.bench.reporting import format_table

    _split_evenly(args.sizes, args.n_user)
    store = TuningStore(args.store)
    params = {"policy": args.policy, "config_tag": args.config_tag}
    if args.policy == "bandit":
        params["deltas"] = [None, us(args.delta_us)]
        params["bandit_seed"] = args.seed
    else:
        params["delta"] = us(args.delta_us)
    rows = []
    for size in args.sizes:
        res = run_autotuned_pair(
            params, n_user=args.n_user, total_bytes=size,
            compute=ms(args.compute_ms), noise_fraction=args.noise,
            iterations=args.iterations, warmup=args.warmup, store=store)
        plan = res.best_plan or {}
        delta = plan.get("delta")
        rows.append([
            fmt_bytes(size),
            plan.get("n_transport", "-"),
            plan.get("n_qps", "-"),
            fmt_time(delta) if delta is not None else "-",
            fmt_time(res.best_plan_time) if res.best_plan_time else "-",
            "explored" if res.explored else "replayed",
        ])
    print(f"autotune [{args.policy}], {args.n_user} partitions, "
          f"store {store.root} ({len(store)} entries)")
    print(format_table(
        ["message size", "transport", "QPs", "delta", "round time", ""],
        rows))
    _warn_corrupt(store)
    return 0


def _warn_corrupt(store) -> None:
    """Surface store rot: corrupt entries read as 'never tuned'."""
    if store.corrupt_entries:
        print(f"warning: {store.corrupt_entries} corrupt or "
              f"alien-schema entr"
              f"{'y' if store.corrupt_entries == 1 else 'ies'} in "
              f"{store.root} (skipped; delete or re-tune)",
              file=sys.stderr)


def _existing_store(root: str) -> str:
    """``root``, which must exist: reading never creates a store."""
    if not os.path.isdir(root):
        raise ConfigError(f"no store at {root}")
    return root


def cmd_autotune_show(args) -> int:
    from repro.autotune import TuningStore
    from repro.bench.reporting import format_table

    store = TuningStore(_existing_store(args.store))
    entries = store.entries()
    if not entries:
        print(f"store {store.root} is empty")
        _warn_corrupt(store)
        return 0
    rows = []
    for payload in entries:
        key, plan = payload["key"], payload["plan"]
        delta = plan.get("delta")
        rows.append([
            key.get("config", "") or "-",
            key.get("n_user", "-"),
            fmt_bytes(key["message_size"]) if "message_size" in key else "-",
            plan.get("n_transport", "-"),
            plan.get("n_qps", "-"),
            fmt_time(delta) if delta is not None else "-",
        ])
    print(format_table(
        ["config", "user partitions", "message size",
         "transport", "QPs", "delta"], rows))
    _warn_corrupt(store)
    return 0


def cmd_serve_stats(args) -> int:
    from repro.bench.reporting import format_table
    from repro.serve import TuningService

    service = TuningService(_existing_store(args.root))
    stats = service.stats()
    rows = [
        ["root", stats["root"]],
        ["shards", str(stats["n_shards"])],
        ["entries", str(stats["entries"])],
        ["shard counts", " ".join(str(c) for c in stats["shard_counts"])],
        ["per-shard bound",
         str(stats["max_entries_per_shard"]) if
         stats["max_entries_per_shard"] else "unbounded"],
        ["commits", str(stats["commits"])],
        ["conflicts", str(stats["conflicts"])],
        ["corrupt entries", str(stats["corrupt_entries"])],
    ]
    print(format_table(["serve store", "value"], rows))
    _warn_corrupt(service.store)
    return 0


def cmd_serve_warm(args) -> int:
    from repro.serve import TuningService

    _existing_store(args.source)
    service = TuningService(args.root)
    imported = service.warm(args.source)
    total = service.store.count()
    print(f"warmed {service.store.root} from {args.source}: "
          f"{imported} imported, {total} total entries")
    return 0


def cmd_serve_bench(args) -> int:
    from repro.bench.reporting import format_table
    from repro.serve.bench import run_serve_bench

    res = run_serve_bench(
        n_clients=args.clients, n_requests=args.requests,
        n_keys=args.keys, zipf_s=args.zipf, seed=args.seed,
        n_shards=args.shards,
        max_entries_per_shard=args.max_per_shard)
    rows = [
        ["clients / requests", f"{res['n_clients']} / "
                               f"{res['n_requests']}"],
        ["keys (zipf s)", f"{res['n_keys']} ({res['zipf_s']})"],
        ["overall hit rate", f"{res['hit_rate']:.1%}"],
        ["warm-cache hit rate", f"{res['warm_hit_rate']:.1%}"],
        ["negative-cache hits", str(res["negative_hits"])],
        ["commits / conflicts",
         f"{res['commits']} / {res['conflicts']}"],
        ["store evictions", str(res["store_evictions"])],
        ["p50 / p99 lookup",
         f"{res['p50_latency_us']:.0f} / "
         f"{res['p99_latency_us']:.0f} us"],
    ]
    print(format_table(["serve bench", "value"], rows))
    return 0


def cmd_bench_run(args) -> int:
    from repro.exp import experiment_names, run_from_options

    names = args.experiments or experiment_names()
    _check_experiments(*names)
    progress = None if args.quiet else (
        lambda msg: print(f"  {msg}", file=sys.stderr))
    violated = 0
    for name in names:
        run = run_from_options(name, args, progress=progress)
        stats = run.stats
        print(f"== {name}: {run.experiment.title} "
              f"[{run.profile.name}] ==")
        print(run.report)
        broken = run.experiment.violations(run.payload)
        print(f"({stats.unique} points, {stats.cache_hits} cached, "
              f"{stats.executed} executed, {run.elapsed:.1f}s; {len(broken)} "
              f"of {len(run.experiment.guidelines)} guidelines violated)")
        for guideline in broken:
            print(f"VIOLATED {name}: {guideline.name} "
                  f"(mechanism: {guideline.mechanism})")
        violated += len(broken)
        for path in run.paths:
            print(f"wrote {path}")
        if run.cpu_profile:
            print(f"wrote {run.cpu_profile} (cProfile; inspect with "
                  f"python -m pstats)")
        print()
    return 1 if violated else 0


def _check_experiments(*names) -> None:
    from repro.exp import experiment_names

    unknown = sorted(set(names) - set(experiment_names()))
    if unknown:
        known = ", ".join(experiment_names())
        raise ConfigError(
            f"unknown experiment(s): {', '.join(unknown)} (have: {known})")


def cmd_plan_show(args) -> int:
    from repro.exp import render_plans

    _check_experiments(args.experiment)
    print(render_plans(args.experiment, args.profile), end="")
    return 0


def cmd_plan_diff(args) -> int:
    from repro.exp import diff_plans

    baseline = args.baseline or args.experiment
    _check_experiments(args.experiment, baseline)
    report = diff_plans(args.experiment, baseline, args.profile,
                        args.baseline_profile)
    if not report:
        print("plans identical")
        return 0
    print(report)
    return 1


def cmd_bench_compare(args) -> int:
    from repro.exp import compare_results, load_result

    try:
        new, baseline = load_result(args.new), load_result(args.baseline)
    except FileNotFoundError as exc:
        raise ConfigError(f"no result file at {exc.filename}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if new.get("experiment") != baseline.get("experiment"):
        print(f"warning: comparing {new.get('experiment')!r} against "
              f"baseline {baseline.get('experiment')!r}", file=sys.stderr)
    report = compare_results(new, baseline, threshold=args.threshold)
    print(report.format())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="MPI Partitioned aggregation reproduction experiments",
    )
    from repro.exp import PROFILES, add_run_options, positive_int

    profiles = sorted(PROFILES)

    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, compute_default=0.0):
        p.add_argument("--iterations", type=int, default=20)
        p.add_argument("--warmup", type=int, default=3)
        p.add_argument("--delay-ms", type=float, default=4.0,
                       help="PLogGP model delay input (ms)")
        p.add_argument("--delta-us", type=float, default=35.0,
                       help="timer aggregator delta (us)")
        p.add_argument("--chart", action="store_true",
                       help="render unicode bars instead of a table")

    p = sub.add_parser("table1", help="reproduce Table I")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("model", help="PLogGP model curves (Fig. 3)")
    p.add_argument("--sizes", type=parse_sizes,
                   default="16KiB,256KiB,4MiB,64MiB,256MiB")
    p.add_argument("--delay-ms", type=float, default=4.0)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("overhead", help="overhead benchmark (Figs. 6-8)")
    p.add_argument("--n-user", type=positive_int, default=32)
    p.add_argument("--sizes", type=parse_sizes,
                   default="4KiB,64KiB,512KiB,4MiB")
    p.add_argument("--aggregator", default="ploggp",
                   choices=["ploggp", "timer", "none"])
    common(p)
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("perceived",
                       help="perceived bandwidth (Figs. 9, 13)")
    p.add_argument("--n-user", type=positive_int, default=32)
    p.add_argument("--sizes", type=parse_sizes, default="8MiB,32MiB")
    p.add_argument("--compute-ms", type=non_negative_float, default=100.0)
    p.add_argument("--noise", type=non_negative_float, default=0.04)
    common(p)
    p.set_defaults(func=cmd_perceived)

    p = sub.add_parser("sweep", help="Sweep3D pattern (Fig. 14)")
    p.add_argument("--grid", type=parse_grid, default="4x4")
    p.add_argument("--threads", type=positive_int, default=16)
    p.add_argument("--sizes", type=parse_sizes, default="256KiB,1MiB")
    p.add_argument("--compute-ms", type=non_negative_float, default=1.0)
    p.add_argument("--noise", type=non_negative_float, default=0.01)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "stencil",
        help="partitioned neighbor-alltoall halo exchange (repro.coll)")
    p.add_argument("--grid", type=parse_dims, default="2x2",
                   help="rank grid, e.g. 4x4 or 2x2x2")
    p.add_argument("--threads", type=positive_int, default=4)
    p.add_argument("--partitions", type=positive_int, default=32,
                   help="partitions per face")
    p.add_argument("--faces", type=parse_sizes, default="64KiB",
                   help="face size, or one size per axis (comma list)")
    p.add_argument("--compute-ms", type=non_negative_float, default=1.0)
    p.add_argument("--noise", type=non_negative_float, default=0.01)
    p.add_argument("--aggregator", default="ploggp",
                   choices=["ploggp", "timer", "per-edge"],
                   help="'per-edge' runs a bandit per edge; give it "
                        "enough --warmup rounds to explore")
    p.add_argument("--plans", action="store_true",
                   help="print rank 0's converged per-edge plans")
    common(p)
    p.set_defaults(func=cmd_stencil)

    p = sub.add_parser("netgauge",
                       help="measure LogGP parameters on the fabric")
    p.add_argument("--sizes", type=parse_sizes, default="256B,4KiB,64KiB,1MiB")
    p.add_argument("--iterations", type=positive_int, default=10)
    p.set_defaults(func=cmd_netgauge)

    p = sub.add_parser("tuning-table",
                       help="brute-force search (Section IV-B)")
    p.add_argument("--n-user", type=positive_int, default=16)
    p.add_argument("--sizes", type=parse_sizes, default="64KiB,1MiB")
    common(p)
    p.set_defaults(func=cmd_tuning_table)

    p = sub.add_parser(
        "chaos", help="seeded chaos campaign with invariant checks")
    p.add_argument("--workloads", default="ext_stencil,pallreduce",
                   help="comma list of registered workloads")
    p.add_argument("--runs", type=positive_int, default=20)
    p.add_argument("--seed", type=int, default=0,
                   help="campaign root seed (each run derives its own)")
    p.add_argument("--kinds", default=",".join(
        ("flap_storm", "rail_failure", "rnr_burst", "latency_train")))
    p.add_argument("--horizon-ms", type=positive_float, default=2.5,
                   help="virtual-time window faults land inside (ms)")
    p.add_argument("--module", default="native",
                   choices=["native", "persist"])
    p.add_argument("--ladder", action="store_true",
                   help="wrap every edge in the degradation ladder")
    p.add_argument("--bundle-dir", default=None,
                   help="write a failure-repro bundle per violating run")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-run progress on stderr")
    p.set_defaults(func=cmd_chaos)

    fleet = sub.add_parser(
        "fleet", help="shared-fabric simulation (repro.fleet)")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    p = fleet_sub.add_parser(
        "rank", help="transport-design ranking vs spine contention")
    p.add_argument("--levels", type=parse_counts, default="0,1,2",
                   help="comma list of background-tenant counts")
    p.add_argument("--transports", type=parse_counts, default="4,8,16",
                   help="fixed-aggregation transport counts to rank")
    p.add_argument("--qps", type=int, default=2)
    p.add_argument("--partitions", type=positive_int, default=16)
    p.add_argument("--partition-size", type=parse_size,
                   default="64KiB")
    p.add_argument("--iterations", type=int, default=6)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fleet_rank)

    p = fleet_sub.add_parser(
        "profile", help="multi-tenant mix with per-job slowdowns")
    p.add_argument("--jobs", default="pair:2,halo:3",
                   help="comma list of kind:ranks tenants "
                        "(kinds: pair, halo, tree)")
    p.add_argument("--background", type=int, default=1,
                   help="permutation-traffic tenants to add")
    p.add_argument("--placement", default="spread",
                   choices=["packed", "spread", "random"])
    p.add_argument("--partitions", type=positive_int, default=16)
    p.add_argument("--partition-size", type=parse_size,
                   default="64KiB")
    p.add_argument("--iterations", type=int, default=6)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fleet_profile)

    p = fleet_sub.add_parser(
        "retune", help="live autotuner re-convergence under a noisy "
                       "neighbor (exits 1 unless it adapts)")
    p.add_argument("--policy", default="bandit",
                   choices=["bandit", "plan_mutation"])
    p.add_argument("--quiet-rounds", type=int, default=12)
    p.add_argument("--congested-rounds", type=int, default=None,
                   help="default: 24 (bandit) / 30 (plan_mutation — the "
                        "frontier walk needs the longer episode)")
    p.add_argument("--tail-rounds", type=int, default=8)
    p.add_argument("--window", type=int, default=4,
                   help="sliding-window size for cost estimates")
    p.add_argument("--compute-us", type=non_negative_float, default=20.0)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--trajectory", action="store_true",
                   help="print the full per-round plan trajectory")
    p.set_defaults(func=cmd_fleet_retune)

    autotune = sub.add_parser(
        "autotune", help="closed-loop tuning store (repro.autotune)")
    autotune_sub = autotune.add_subparsers(dest="autotune_command",
                                           required=True)

    p = autotune_sub.add_parser(
        "tune", help="learn plans for workloads, persist them to a store")
    p.add_argument("--store", default="results/autotune-store",
                   help="tuning store directory (default: %(default)s)")
    p.add_argument("--n-user", type=positive_int, default=32)
    p.add_argument("--sizes", type=parse_sizes, default="256KiB,2MiB,8MiB")
    p.add_argument("--policy", default="bandit",
                   choices=["bandit", "delta_tracker"])
    p.add_argument("--config-tag", default="niagara",
                   help="cluster identity baked into store keys")
    p.add_argument("--compute-ms", type=non_negative_float, default=0.0)
    p.add_argument("--noise", type=non_negative_float, default=0.0)
    p.add_argument("--seed", type=int, default=0,
                   help="bandit exploration seed")
    p.add_argument("--iterations", type=int, default=64)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--delta-us", type=float, default=35.0)
    p.set_defaults(func=cmd_autotune_tune)

    p = autotune_sub.add_parser(
        "show", help="list the plans a tuning store has learned")
    p.add_argument("--store", default="results/autotune-store",
                   help="tuning store directory (default: %(default)s)")
    p.set_defaults(func=cmd_autotune_show)

    serve = sub.add_parser(
        "serve", help="tuning-as-a-service plan server (repro.serve)")
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    p = serve_sub.add_parser(
        "stats", help="summarize a serve store root (shards, entries)")
    p.add_argument("--root", default="results/serve-store",
                   help="serve store root (default: %(default)s)")
    p.set_defaults(func=cmd_serve_stats)

    p = serve_sub.add_parser(
        "warm", help="bulk-import a tuning store into a serve root")
    p.add_argument("--root", default="results/serve-store",
                   help="serve store root (default: %(default)s)")
    p.add_argument("--source", required=True,
                   help="flat TuningStore directory (or sharded root) "
                        "to import")
    p.set_defaults(func=cmd_serve_warm)

    p = serve_sub.add_parser(
        "bench", help="seeded synthetic client traffic (Zipf keys, "
                      "mixed get/commit, bursty arrivals)")
    p.add_argument("--clients", type=positive_int, default=400)
    p.add_argument("--requests", type=positive_int, default=4000)
    p.add_argument("--keys", type=positive_int, default=64)
    p.add_argument("--zipf", type=float, default=1.1,
                   help="Zipf exponent of the key popularity "
                        "(default: %(default)s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=8)
    p.add_argument("--max-per-shard", type=int, default=0,
                   help="entries bound per shard, 0 = unbounded "
                        "(default: %(default)s)")
    p.set_defaults(func=cmd_serve_bench)

    plan = sub.add_parser(
        "plan", help="communication-plan IR per experiment (repro.plan)")
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    p = plan_sub.add_parser(
        "show", help="print the plan each sweep point lowers to")
    p.add_argument("experiment", metavar="EXPERIMENT",
                   help="registered experiment name")
    p.add_argument("--profile", default="fast", choices=profiles,
                   help="sweep profile (default: %(default)s)")
    p.set_defaults(func=cmd_plan_show)

    p = plan_sub.add_parser(
        "diff", help="diff two experiments' (or profiles') plans")
    p.add_argument("experiment", metavar="EXPERIMENT")
    p.add_argument("baseline", metavar="BASELINE", nargs="?", default=None,
                   help="baseline experiment (default: EXPERIMENT itself, "
                        "for cross-profile diffs)")
    p.add_argument("--profile", default="fast", choices=profiles,
                   help="profile for EXPERIMENT (default: %(default)s)")
    p.add_argument("--baseline-profile", default=None, choices=profiles,
                   help="profile for BASELINE (default: --profile)")
    p.set_defaults(func=cmd_plan_diff)

    bench = sub.add_parser(
        "bench", help="registered paper experiments (figures/tables)")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    p = bench_sub.add_parser("list", help="list registered experiments")
    p.add_argument("--points", action="store_true",
                   help="also count sweep points per profile")
    p.set_defaults(func=cmd_bench_list)

    p = bench_sub.add_parser(
        "run", help="run experiments, check guidelines, write artifacts")
    p.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                   help="experiment names (default: all registered)")
    add_run_options(p)
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-point progress on stderr")
    p.set_defaults(func=cmd_bench_run)

    p = bench_sub.add_parser(
        "compare", help="diff two result artifacts, flag regressions")
    p.add_argument("new", help="candidate artifact (BENCH_*.json)")
    p.add_argument("baseline", help="baseline artifact to compare against")
    p.add_argument("--threshold", type=non_negative_float, default=0.10,
                   help="relative change tolerated before a value counts "
                        "as regressed (default: %(default)s)")
    p.set_defaults(func=cmd_bench_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: standard
        # CLI etiquette is to exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        os.close(2)
        return 0


if __name__ == "__main__":
    sys.exit(main())
