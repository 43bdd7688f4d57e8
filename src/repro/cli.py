"""Command-line interface: run reproduction experiments from the shell.

Installed as ``repro-bench`` (or ``python -m repro.cli``).  ``point``
runs one measurement point of any kind (a row of ``repro.exp.kinds``)
through the scenario key, point cache and validator the registered
experiments use, and prints ``{kind, params, metrics}`` as sorted JSON.
A value is JSON where it parses, else a size (``64KiB``), time (``4ms``)
or grid (``4x4``) literal; a wrong kind, key or value is a usage error
(exit 2) that names what the kind accepts::

    repro-bench point table1
    repro-bench point model_curve sizes=16KiB,4MiB n=32 delay=4ms
    repro-bench point overhead module='["ploggp",{"delay":0.004}]' \
        n_user=32 total_bytes=64KiB iterations=20 warmup=3
    repro-bench point perceived module='["timer",{"delta":3.5e-05}]' \
        n_user=32 total_bytes=8MiB compute=100ms noise_fraction=0.04
    repro-bench point sweep module='["ploggp"]' grid=8x8 n_threads=16 \
        total_bytes=256KiB compute=1ms noise_fraction=0.01
    repro-bench point stencil grid=4x4 n_threads=4 n_partitions=32 \
        face_bytes=64KiB,4KiB per_edge='{"counts":[2,8,32],"deltas":[null]}'
    repro-bench point netgauge sizes=4KiB,64KiB,1MiB
    repro-bench point tuning_table n_user=16 total_bytes=64KiB
    repro-bench point fleet_rank level=1 \
        module='["fixed",{"n_transport":4,"n_qps":2}]'
    repro-bench point fleet placement=spread \
        jobs='[{"name":"pair0"},{"name":"halo1","kind":"halo","n_ranks":3}]'
    repro-bench point fleet_autotune autotune='{"counts":[4,16],"window":4}'
    repro-bench point serve_bench n_clients=400 n_requests=4000 zipf_s=1.1
    repro-bench point chaos workload=pallreduce fault=rail_failure seed=7 \
        index=1 ladder=true

Speedups over ``part_persist``, Table I against the paper, the fleet's
contention ranking and its re-tuning verdicts are the registered
experiments' series and guidelines (``docs/BENCHMARKS.md``); ``bench
run`` exits 1 when a run breaks a guideline::

    repro-bench bench list
    repro-bench bench run fig06 fig08 table1 ext_fleet --profile fast
    repro-bench bench compare BENCH_fig06.json baseline/BENCH_fig06.json

``plan`` renders the communication-plan IR of an experiment's points
(``docs/PLAN_IR.md``), and the rest own stores and campaigns (``chaos``
runs the ``ext_chaos`` row at the campaign its flags describe)::

    repro-bench plan show fig08 --profile fast
    repro-bench plan diff fig08 --baseline-profile paper
    repro-bench autotune tune --sizes 256KiB,2MiB --store results/store
    repro-bench autotune show --store results/store
    repro-bench serve stats --root results/serve-store
    repro-bench serve warm --root results/serve-store --source results/store
    repro-bench chaos --runs 50 --seed 7 --ladder --bundle-dir results/chaos
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.exp.kinds import non_negative_float, parse_sizes
from repro.units import fmt_bytes, fmt_time, ms, us


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


def cmd_chaos(args) -> int:
    """The ``ext_chaos`` row at the campaign the flags describe."""
    from repro.chaos import KINDS, NATIVE, WORKLOADS
    from repro.exp import Runner, get_experiment

    experiment = get_experiment("ext_chaos")
    spec = experiment.spec(
        workloads=_names(args.workloads, sorted(WORKLOADS), "workload"),
        runs=args.runs, seed=args.seed,
        kinds=_names(args.kinds, KINDS, "fault kind"),
        horizon=ms(args.horizon_ms),
        module=NATIVE if args.module == "native" else ["persist"],
        ladder=args.ladder)
    progress = None if args.quiet else (
        lambda msg: print(f"  {msg}", file=sys.stderr))
    payload = spec.collect(Runner(progress=progress).run(spec.points))
    print(spec.report(payload))
    violated = _print_violations("ext_chaos", experiment, payload)
    if args.bundle_dir:
        os.makedirs(args.bundle_dir, exist_ok=True)
        for bundle in payload["runs"]:
            if not bundle["violations"]:
                continue
            path = os.path.join(
                args.bundle_dir,
                f"chaos-{bundle['workload']}-run{bundle['index']}.json")
            with open(path, "w") as fh:
                json.dump(bundle, fh, indent=2, sort_keys=True)
            print(f"wrote {path}")
    return 1 if violated else 0


def _print_violations(name: str, experiment, payload: dict) -> int:
    """Print a ``VIOLATED`` line per guideline ``payload`` breaks."""
    broken = experiment.violations(payload)
    for guideline in broken:
        print(f"VIOLATED {name}: {guideline.name} "
              f"(mechanism: {guideline.mechanism})")
    return len(broken)


def cmd_bench_list(args) -> int:
    from repro.bench.reporting import format_table
    from repro.exp import PROFILES, all_experiments, get_profile

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


def cmd_point(args) -> int:
    from repro.exp import ResultCache, Runner
    from repro.exp.kinds import point_scenario

    point = point_scenario(args.kind, args.params)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    metrics = Runner(cache=cache).run([point])[point]
    print(json.dumps({"kind": point.kind, "params": point.params,
                      "metrics": metrics}, sort_keys=True))
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
        violated += _print_violations(name, run.experiment, run.payload)
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
    from repro.exp import (PROFILES, add_cache_options, add_run_options,
                           positive_int)

    profiles = sorted(PROFILES)

    sub = parser.add_subparsers(dest="command", required=True)

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

    p = sub.add_parser(
        "point", help="run one measurement point of any kind "
                      "(prints {kind, params, metrics} as JSON)")
    p.add_argument("kind", metavar="KIND",
                   help="a row of repro.exp.kinds (a wrong one lists them)")
    p.add_argument("params", nargs="*", metavar="KEY=VALUE",
                   help="JSON, or a size (64KiB), time (4ms) or grid "
                        "(4x4) literal")
    add_cache_options(p)
    p.set_defaults(func=cmd_point)

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
