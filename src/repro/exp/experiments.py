"""Every figure/table of the paper as a registered declarative spec.

Each ``<name>_spec`` function builds the exact sweep points the old
imperative ``benchmarks/bench_*.py`` loop ran — same modules, same
workloads, same iteration counts — so the harness reproduces the
historical numbers bit for bit (guarded by the goldens).  The
``@register`` builds instantiate the specs from a named profile
(paper-scale vs. fast) for ``repro-bench bench run``.

Layout note: the spec builders key their scenario dicts by the same
loop variables the old scripts used, and ``collect`` reads results
back through those dicts, so a reviewer can diff a spec against the
retired loop line by line.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.bench.reporting import (
    format_bandwidth_series,
    format_delta_table,
    format_speedup_series,
    format_table,
)
from repro.exp.profiles import (
    PERCEIVED_COMPUTE,
    PERCEIVED_NOISE,
    Profile,
)
from repro.exp.modules import config_desc
from repro.exp.registry import ExperimentSpec, Metric, register
from repro.exp.spec import Scenario
from repro.units import KiB, MiB, fmt_bytes, fmt_rate, fmt_time, ms, us

#: Shared module descriptors (see :mod:`repro.exp.modules`).
PERSIST = ["persist"]
PLOGGP = ["ploggp", {"delay": ms(4)}]
TIMER_3000US = ["timer", {"delay": ms(4), "delta": us(3000)}]

SPEEDUP = Metric("speedup over part_persist", "x")
BANDWIDTH = Metric("perceived bandwidth", "B/s")
MODEL_TIME = Metric("modelled completion time", "s", higher_is_better=False)


def _iter_extras(it: Mapping) -> dict:
    """Optional per-run overrides riding in an iteration-kwargs mapping.

    The legacy scripts pass a whole ``config=ClusterConfig`` through
    their kwargs dicts (e.g. the multi-rail test); scenarios must stay
    JSON-safe, so live configs are converted to descriptors here.
    """
    extras = {}
    cfg = it.get("config")
    if cfg is not None:
        extras["config"] = cfg if isinstance(cfg, dict) else config_desc(cfg)
    return extras


def _overhead(module, n_user: int, size: int, it: Mapping) -> Scenario:
    return Scenario.make(
        "overhead", module=module, n_user=n_user, total_bytes=size,
        iterations=it["iterations"], warmup=it["warmup"],
        **_iter_extras(it))


def _perceived(module, n_user: int, size: int, iterations: int,
               warmup: int, loss: float = 0.0,
               compute: float = PERCEIVED_COMPUTE,
               noise: float = PERCEIVED_NOISE) -> Scenario:
    params = dict(module=module, n_user=n_user, total_bytes=size,
                  compute=compute, noise_fraction=noise,
                  iterations=iterations, warmup=warmup)
    if loss:
        params["loss"] = loss
    return Scenario.make("perceived", **params)


def _sweep(module, grid_shape, n_threads: int, size: int, compute: float,
           noise: float, it: Mapping) -> Scenario:
    return Scenario.make(
        "sweep", module=module, grid=list(grid_shape), n_threads=n_threads,
        total_bytes=size, compute=compute, noise_fraction=noise,
        iterations=it["iterations"], warmup=it["warmup"],
        **_iter_extras(it))


# ---------------------------------------------------------------- fig03

FIG03_COUNTS = (1, 2, 4, 8, 16, 32)
FIG03_SIZES = (16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB, 16 * MiB,
               64 * MiB, 256 * MiB)
FIG03_DELAY = ms(4)


def fig03_spec(sizes=FIG03_SIZES, counts=FIG03_COUNTS,
               delay=FIG03_DELAY) -> ExperimentSpec:
    sizes = list(sizes)
    pts = {n: Scenario.make("model_curve", sizes=sizes, n=n, delay=delay)
           for n in counts}

    def collect(res):
        curves = {n: res[pts[n]]["times"] for n in counts}
        series = {f"{n} parts": dict(zip(sizes, curves[n])) for n in counts}
        return {"series": series, "curves": curves, "sizes": sizes}

    def report(payload):
        return fig03_report(payload["curves"], payload["sizes"])

    return ExperimentSpec(list(pts.values()), collect, report, MODEL_TIME)


def fig03_report(curves, sizes=FIG03_SIZES) -> str:
    rows = []
    for i, size in enumerate(sizes):
        best = min(curves, key=lambda n: curves[n][i])
        rows.append([fmt_bytes(size)]
                    + [fmt_time(curves[n][i]) for n in curves]
                    + [best])
    return format_table(
        ["size"] + [f"{n} parts" for n in curves] + ["best"], rows)


@register("fig03", "Fig. 3: PLogGP-modelled completion times")
def _build_fig03(profile: Profile) -> ExperimentSpec:
    return fig03_spec()


# --------------------------------------------------------------- table1


def table1_spec() -> ExperimentSpec:
    point = Scenario.make("table1")

    def collect(res):
        table = {int(size): n for size, n in res[point]["table"].items()}
        return {"series": {"optimal transport partitions":
                           {size: n for size, n in sorted(table.items())}},
                "table": table}

    def report(payload):
        return table1_report(payload["table"])

    return ExperimentSpec(
        [point], collect, report, Metric("optimal transport partitions"))


def table1_report(got) -> str:
    from repro.model.tables import TABLE1_PAPER

    rows = [[fmt_bytes(size), want, got[size],
             "ok" if got[size] == want else "MISMATCH"]
            for size, want in TABLE1_PAPER.items()]
    return format_table(["aggregate size", "paper", "model", ""], rows)


@register("table1", "Table I: optimal transport partitions")
def _build_table1(profile: Profile) -> ExperimentSpec:
    return table1_spec()


# ---------------------------------------------------------------- fig06

FIG06_N_USER = 32
FIG06_TRANSPORT_COUNTS = (2, 8, 32)
FIG06_N_QPS = 2


def fig06_spec(sizes, iter_kwargs,
               transport_counts=FIG06_TRANSPORT_COUNTS,
               n_user=FIG06_N_USER, n_qps=FIG06_N_QPS) -> ExperimentSpec:
    sizes = list(sizes)
    base = {s: _overhead(PERSIST, n_user, s, iter_kwargs) for s in sizes}
    agg = {(t, s): _overhead(["fixed", {"n_transport": t, "n_qps": n_qps}],
                             n_user, s, iter_kwargs)
           for t in transport_counts for s in sizes}

    def collect(res):
        series = {
            f"T={t}": {s: res[base[s]]["mean_time"]
                       / res[agg[(t, s)]]["mean_time"] for s in sizes}
            for t in transport_counts
        }
        return {"series": series}

    return ExperimentSpec(
        list(base.values()) + list(agg.values()), collect,
        lambda payload: format_speedup_series(payload["series"]), SPEEDUP)


@register("fig06", "Fig. 6: overhead vs. transport-partition count")
def _build_fig06(profile: Profile) -> ExperimentSpec:
    return fig06_spec(profile.overhead_sizes, profile.ptp_iter)


# ---------------------------------------------------------------- fig07

FIG07_N_USER = 16
FIG07_QP_COUNTS = (1, 4, 16)


def fig07_spec(sizes, iter_kwargs, qp_counts=FIG07_QP_COUNTS,
               n_user=FIG07_N_USER) -> ExperimentSpec:
    sizes = list(sizes)
    base = {s: _overhead(PERSIST, n_user, s, iter_kwargs) for s in sizes}
    agg = {(q, s): _overhead(["noagg", {"n_qps": q}], n_user, s,
                             iter_kwargs)
           for q in qp_counts for s in sizes}

    def collect(res):
        series = {
            f"QP={q}": {s: res[base[s]]["mean_time"]
                        / res[agg[(q, s)]]["mean_time"] for s in sizes}
            for q in qp_counts
        }
        return {"series": series}

    return ExperimentSpec(
        list(base.values()) + list(agg.values()), collect,
        lambda payload: format_speedup_series(payload["series"]), SPEEDUP)


@register("fig07", "Fig. 7: overhead vs. QP count")
def _build_fig07(profile: Profile) -> ExperimentSpec:
    sizes = list(profile.overhead_sizes)
    if 16 * MiB not in sizes:
        # The QP effect needs a wire-saturating point (Section V-B1).
        sizes.append(16 * MiB)
    return fig07_spec(sizes, profile.ptp_iter)


# ---------------------------------------------------------------- fig08

FIG08_USER_COUNTS = (4, 32, 128)
FIG08_SIZES = (4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB, 512 * KiB,
               2 * MiB, 8 * MiB)
FIG08_SIZES_FAST = (16 * KiB, 128 * KiB, 2 * MiB)


def fig08_spec(user_counts, sizes, iter_kwargs,
               table_iters: int = 5) -> ExperimentSpec:
    user_counts, sizes = list(user_counts), list(sizes)
    usable_by, base, table, ploggp = {}, {}, {}, {}
    for n_user in user_counts:
        usable = [s for s in sizes if s >= n_user]
        usable_by[n_user] = usable
        table_desc = ["tuning_table", {
            "n_user_counts": [n_user], "message_sizes": usable,
            "iterations": table_iters, "warmup": 1}]
        for s in usable:
            base[(n_user, s)] = _overhead(PERSIST, n_user, s, iter_kwargs)
            table[(n_user, s)] = _overhead(table_desc, n_user, s,
                                           iter_kwargs)
            ploggp[(n_user, s)] = _overhead(PLOGGP, n_user, s, iter_kwargs)

    def collect(res):
        series = {}
        for n_user in user_counts:
            series[f"{n_user}p tuning-table"] = {
                s: res[base[(n_user, s)]]["mean_time"]
                / res[table[(n_user, s)]]["mean_time"]
                for s in usable_by[n_user]}
            series[f"{n_user}p ploggp"] = {
                s: res[base[(n_user, s)]]["mean_time"]
                / res[ploggp[(n_user, s)]]["mean_time"]
                for s in usable_by[n_user]}
        return {"series": series}

    return ExperimentSpec(
        list(base.values()) + list(table.values()) + list(ploggp.values()),
        collect,
        lambda payload: format_speedup_series(payload["series"]), SPEEDUP)


@register("fig08", "Fig. 8: tuning-table vs. PLogGP aggregator")
def _build_fig08(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return fig08_spec(FIG08_USER_COUNTS, FIG08_SIZES,
                          profile.ptp_iter, table_iters=5)
    return fig08_spec((4, 32), FIG08_SIZES_FAST, profile.ptp_iter,
                      table_iters=3)


# ---------------------------------------------------------------- fig09

FIG09_DESIGNS = (("persist", PERSIST), ("ploggp", PLOGGP),
                 ("timer(3000us)", TIMER_3000US))


def fig09_spec(n_users, sizes, iterations, warmup) -> ExperimentSpec:
    n_users, sizes = list(n_users), list(sizes)
    pts = {(n, name, s): _perceived(desc, n, s, iterations, warmup)
           for n in n_users for name, desc in FIG09_DESIGNS for s in sizes}

    def label(n, name):
        return name if len(n_users) == 1 else f"{n}p {name}"

    def collect(res):
        series = {
            label(n, name): {
                s: res[pts[(n, name, s)]]["perceived_bandwidth"]
                for s in sizes}
            for n in n_users for name, _ in FIG09_DESIGNS
        }
        return {"series": series}

    def report(payload):
        from repro.bench.perceived import single_thread_line

        return format_bandwidth_series(payload["series"],
                                       reference=single_thread_line())

    return ExperimentSpec(list(pts.values()), collect, report, BANDWIDTH)


@register("fig09", "Fig. 9: perceived bandwidth of the three designs")
def _build_fig09(profile: Profile) -> ExperimentSpec:
    n_users = (16, 32) if profile.name == "paper" else (32,)
    return fig09_spec(n_users, profile.perceived_sizes,
                      profile.perceived_iterations,
                      profile.perceived_warmup)


# ----------------------------------------------------------- fig10 / 11

PROFILE_N_USER = 32


def profile_from_metrics(metrics: Mapping):
    """Rebuild an :class:`~repro.profiler.ArrivalProfile` from a
    serialized ``arrival_profile`` point result."""
    from repro.profiler import ArrivalProfile

    return ArrivalProfile(
        partition_size=metrics["partition_size"],
        compute_spans=tuple(metrics["compute_spans"]),
        comm_span=metrics["comm_span"])


def profile_table(profile) -> str:
    """The Fig. 10/11 per-partition arrival table."""
    rows = []
    laggard = profile.laggard_time
    for i, span in enumerate(profile.compute_spans):
        end = profile.transfer_end(i)
        rows.append([
            i,
            fmt_time(span),
            fmt_time(end),
            "early" if (i < profile.n_partitions - 1 and end <= laggard)
            else ("laggard" if i == profile.n_partitions - 1 else "late"),
        ])
    return format_table(
        ["arrival rank", "pready (rel)", "wire done", "early bird?"], rows)


def arrival_profile_spec(total_bytes: int, iterations: int, warmup: int,
                         n_user: int = PROFILE_N_USER) -> ExperimentSpec:
    from repro.profiler import early_bird_fraction

    point = Scenario.make(
        "arrival_profile", n_user=n_user, total_bytes=total_bytes,
        compute=PERCEIVED_COMPUTE, noise_fraction=PERCEIVED_NOISE,
        iterations=iterations, warmup=warmup)

    def collect(res):
        metrics = res[point]
        profile = profile_from_metrics(metrics)
        return {
            "series": {"arrival": {
                "early_bird_fraction": early_bird_fraction(profile),
                "laggard_time": profile.laggard_time,
            }},
            "profile": dict(metrics),
        }

    def report(payload):
        profile = profile_from_metrics(payload["profile"])
        return (f"{profile_table(profile)}\n\nearly-bird fraction: "
                f"{early_bird_fraction(profile):.3f}")

    return ExperimentSpec([point], collect, report,
                          Metric("early-bird fraction"))


@register("fig10", "Fig. 10: arrival profile, 8 MiB")
def _build_fig10(profile: Profile) -> ExperimentSpec:
    return arrival_profile_spec(8 * MiB, profile.perceived_iterations,
                                profile.perceived_warmup)


@register("fig11", "Fig. 11: arrival profile, 128 MiB")
def _build_fig11(profile: Profile) -> ExperimentSpec:
    return arrival_profile_spec(128 * MiB, profile.perceived_iterations,
                                profile.perceived_warmup)


# ---------------------------------------------------------------- fig12

FIG12_COUNTS = (4, 8, 16, 32, 64, 128)
FIG12_SIZES = (1 * MiB, 8 * MiB, 64 * MiB)


def fig12_spec(sizes=FIG12_SIZES, counts=FIG12_COUNTS, iterations=5,
               warmup=2) -> ExperimentSpec:
    from repro.config import NIAGARA
    from repro.core import PLogGPAggregator
    from repro.model.tables import NIAGARA_LOGGP

    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))
    pts = {}
    for size in sizes:
        for n_user in counts:
            if size % n_user:
                continue
            plan = agg.plan(n_user, size // n_user, NIAGARA)
            if plan.n_transport == n_user:
                # The model requested no aggregation: nothing for the
                # timer to cover (the paper's missing data points).
                continue
            pts[(size, n_user)] = Scenario.make(
                "min_delta", module=PLOGGP, n_user=n_user,
                total_bytes=size, compute=PERCEIVED_COMPUTE,
                noise_fraction=PERCEIVED_NOISE, iterations=iterations,
                warmup=warmup)

    def collect(res):
        rows = [[size, n_user, res[pt]["min_delta"]]
                for (size, n_user), pt in pts.items()]
        series = {"min delta": {f"{size}/{n_user}p": delta
                                for size, n_user, delta in rows}}
        return {"series": series, "rows": rows}

    def report(payload):
        return format_delta_table({(size, n_user): delta
                                   for size, n_user, delta
                                   in payload["rows"]})

    return ExperimentSpec(list(pts.values()), collect, report,
                          Metric("minimum delta", "s",
                                 higher_is_better=False))


@register("fig12", "Fig. 12: estimated minimum delta")
def _build_fig12(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return fig12_spec()
    return fig12_spec((8 * MiB,), (16, 32, 128), iterations=3, warmup=1)


# ---------------------------------------------------------------- fig13

FIG13_DELTAS = (us(10), us(35), us(100))
FIG13_N_USER = 32


def fig13_spec(sizes, iterations, warmup, deltas=FIG13_DELTAS,
               n_user=FIG13_N_USER) -> ExperimentSpec:
    sizes = list(sizes)
    pts = {(delta, s): _perceived(
        ["timer", {"delay": ms(4), "delta": delta}], n_user, s,
        iterations, warmup) for delta in deltas for s in sizes}

    def collect(res):
        series = {
            f"delta={delta * 1e6:.0f}us": {
                s: res[pts[(delta, s)]]["perceived_bandwidth"]
                for s in sizes}
            for delta in deltas
        }
        return {"series": series}

    def report(payload):
        from repro.bench.perceived import single_thread_line

        return format_bandwidth_series(payload["series"],
                                       reference=single_thread_line())

    return ExperimentSpec(list(pts.values()), collect, report, BANDWIDTH)


@register("fig13", "Fig. 13: perceived bandwidth across a delta window")
def _build_fig13(profile: Profile) -> ExperimentSpec:
    iterations = profile.perceived_iterations if profile.name == "paper" \
        else 4
    warmup = profile.perceived_warmup if profile.name == "paper" else 1
    return fig13_spec(profile.perceived_sizes, iterations, warmup)


# ---------------------------------------------------------------- fig14

#: (label, compute, noise fraction) -> laggard delay of 10/40/400 us.
FIG14_NOISE_POINTS = (
    ("14a: 1ms+1% (10us)", 1e-3, 0.01),
    ("14b: 1ms+4% (40us)", 1e-3, 0.04),
    ("14c: 10ms+4% (400us)", 10e-3, 0.04),
)
FIG14_GRID = (8, 8)
FIG14_N_THREADS = 16
FIG14_TIMER_DELTA = us(8)


def fig14_spec(grid_shape, sizes, noise_points, iter_kwargs,
               n_threads=FIG14_N_THREADS,
               timer_delta=FIG14_TIMER_DELTA) -> ExperimentSpec:
    sizes = list(sizes)
    designs = (("ploggp", PLOGGP),
               ("timer", ["timer", {"delay": ms(4), "delta": timer_delta}]))
    base, ours = {}, {}
    for label, compute, noise in noise_points:
        for s in sizes:
            base[(label, s)] = _sweep(PERSIST, grid_shape, n_threads, s,
                                      compute, noise, iter_kwargs)
            for name, desc in designs:
                ours[(label, name, s)] = _sweep(
                    desc, grid_shape, n_threads, s, compute, noise,
                    iter_kwargs)

    def collect(res):
        series = {}
        for label, _, _ in noise_points:
            for name, _ in designs:
                series[f"{label} {name}"] = {
                    s: res[base[(label, s)]]["mean_comm_time"]
                    / res[ours[(label, name, s)]]["mean_comm_time"]
                    for s in sizes}
        return {"series": series}

    return ExperimentSpec(
        list(base.values()) + list(ours.values()), collect,
        lambda payload: format_speedup_series(payload["series"]), SPEEDUP)


@register("fig14", "Fig. 14: Sweep3D communication speedup")
def _build_fig14(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return fig14_spec(FIG14_GRID, profile.sweep_sizes,
                          FIG14_NOISE_POINTS, profile.sweep_iter)
    return fig14_spec((4, 4), profile.sweep_sizes, FIG14_NOISE_POINTS[:2],
                      profile.sweep_iter)


# -------------------------------------------------------- ext_ablations

ABL_N_USER = 32
#: Below the ~20 us natural arrival spread of 32 threads at 100 ms
#: compute, so the flush regularly catches non-contiguous holes.
ABL_TIGHT_DELTA = us(5)


def ext_sg_spec(sizes=(8 * MiB, 32 * MiB), iterations=6,
                warmup=2) -> ExperimentSpec:
    sizes = list(sizes)
    pts = {}
    for sg in (False, True):
        name = "sg" if sg else "runs"
        desc = ["timer", {"delay": ms(4), "delta": ABL_TIGHT_DELTA,
                          "scatter_gather": sg}]
        for s in sizes:
            pts[(name, s)] = _perceived(desc, ABL_N_USER, s, iterations,
                                        warmup)

    def collect(res):
        rows = [[name, s, res[pt]["perceived_bandwidth"],
                 res[pt]["wrs_posted"] / (iterations + warmup)]
                for (name, s), pt in pts.items()]
        series = {name: {s: bw for n, s, bw, _ in rows if n == name}
                  for name in ("runs", "sg")}
        return {"series": series, "rows": rows}

    def report(payload):
        rows = [[fmt_bytes(s), name, f"{bw / 2**30:.0f}GiB/s", f"{wrs:.1f}"]
                for name, s, bw, wrs in sorted(payload["rows"],
                                               key=lambda r: r[1])]
        return format_table(["size", "flush", "perceived bw", "WRs/round"],
                            rows)

    return ExperimentSpec(list(pts.values()), collect, report, BANDWIDTH)


def ext_adaptive_spec(size=256 * KiB, iterations=4,
                      warmup=1) -> ExperimentSpec:
    it = dict(iterations=iterations, warmup=warmup)
    grid_shape, n_threads, compute, noise = (4, 4), 16, ms(1), 0.04
    designs = {
        "fixed good (8us)": ["timer", {"delay": ms(4), "delta": us(8)}],
        "fixed bad (200us)": ["timer", {"delay": ms(4), "delta": us(200)}],
        "adaptive (seed 200us)": ["adaptive", {
            "delay": ms(4), "initial_delta": us(200), "alpha": 0.6,
            "margin": 1.5, "min_delta": us(1), "max_delta": us(200)}],
    }
    base = _sweep(PERSIST, grid_shape, n_threads, size, compute, noise, it)
    ours = {name: _sweep(desc, grid_shape, n_threads, size, compute,
                         noise, it)
            for name, desc in designs.items()}

    def collect(res):
        speedups = {name: res[base]["mean_comm_time"]
                    / res[pt]["mean_comm_time"]
                    for name, pt in ours.items()}
        return {"series": {"adaptive ablation": speedups},
                "speedups": speedups}

    def report(payload):
        rows = [[name, f"{v:.3f}x"]
                for name, v in payload["speedups"].items()]
        return format_table(["delta policy", "comm speedup"], rows)

    return ExperimentSpec([base] + list(ours.values()), collect, report,
                          SPEEDUP)


@register("ext_ablations", "Extension: SG-flush and adaptive-delta "
                           "ablations")
def _build_ext_ablations(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        sg = ext_sg_spec()
        adaptive = ext_adaptive_spec(iterations=6)
    else:
        sg = ext_sg_spec((8 * MiB,), iterations=4, warmup=1)
        adaptive = ext_adaptive_spec()

    def collect(res):
        sg_payload = sg.collect(res)
        ad_payload = adaptive.collect(res)
        return {"series": {**sg_payload["series"], **ad_payload["series"]},
                "sg": sg_payload, "adaptive": ad_payload}

    def report(payload):
        return ("-- scatter/gather flush (tight delta forces hole-y "
                "flushes) --\n" + sg.report(payload["sg"])
                + "\n\n-- adaptive delta in the sweep (comm speedup vs "
                  "persist) --\n" + adaptive.report(payload["adaptive"]))

    return ExperimentSpec(sg.points + adaptive.points, collect, report,
                          BANDWIDTH)


# ----------------------------------------------------------- ext_faults

FAULTS_N_USER = 16
FAULTS_TOTAL = 32 * MiB
FAULTS_LOSSES = (0.0, 1e-5, 1e-4, 1e-3)
FAULTS_DESIGNS = (("persist", PERSIST), ("ploggp", PLOGGP),
                  ("timer(3000us)", TIMER_3000US))


def ext_faults_spec(n_user=FAULTS_N_USER, total_bytes=FAULTS_TOTAL,
                    losses=FAULTS_LOSSES, iterations=10,
                    warmup=3) -> ExperimentSpec:
    losses = list(losses)
    pts = {(loss, name): _perceived(desc, n_user, total_bytes, iterations,
                                    warmup, loss=loss)
           for loss in losses for name, desc in FAULTS_DESIGNS}

    def collect(res):
        rows = [[loss, name, res[pt]["perceived_bandwidth"],
                 res[pt]["retransmits"]]
                for (loss, name), pt in pts.items()]
        series = {name: {f"{loss:g}": bw
                         for loss, n, bw, _ in rows if n == name}
                  for name, _ in FAULTS_DESIGNS}
        return {"series": series, "rows": rows}

    def report(payload):
        table = {}
        for loss, name, bw, rexmt in payload["rows"]:
            table.setdefault(loss, {})[name] = (bw, rexmt)
        return faults_table_report(table)

    return ExperimentSpec(list(pts.values()), collect, report, BANDWIDTH)


def faults_table_report(table) -> str:
    """Render ``{loss: {design: (bw, retransmits)}}`` as a table."""
    designs = list(next(iter(table.values())))
    rows = []
    for loss, line in table.items():
        row = [f"{loss:g}"]
        for name in designs:
            bw, rexmt = line[name]
            row.append(f"{fmt_rate(bw)} {rexmt:4d}")
        rows.append(row)
    return format_table(
        ["loss"] + [f"{d} (bw, rexmt)" for d in designs], rows)


@register("ext_faults", "Extension: perceived bandwidth under chunk loss")
def _build_ext_faults(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return ext_faults_spec()
    return ext_faults_spec(8, 8 * MiB, (0.0, 1e-3), iterations=3, warmup=1)


# ------------------------------------------------------------- ext_halo

HALO_GRID = (8, 8)
HALO_N_THREADS = 16
HALO_SIZES = (64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB)
HALO_SIZES_FAST = (256 * KiB, 1 * MiB)
HALO_TOPOLOGY = ["dragonfly+", {"nodes_per_leaf": 16,
                                "leaves_per_group": 2}]


def ext_halo_spec(grid_shape=HALO_GRID, sizes=HALO_SIZES, iterations=10,
                  warmup=3, topology: Optional[Sequence] = None,
                  n_threads=HALO_N_THREADS) -> ExperimentSpec:
    sizes = list(sizes)
    designs = (("ploggp", PLOGGP),
               ("timer", ["timer", {"delay": ms(4), "delta": us(8)}]))

    def halo_point(module, size):
        params = dict(module=module, grid=list(grid_shape),
                      n_threads=n_threads, face_bytes=size, compute=ms(1),
                      noise_fraction=0.01, iterations=iterations,
                      warmup=warmup)
        if topology is not None:
            params["topology"] = list(topology)
        return Scenario.make("halo", **params)

    base = {s: halo_point(PERSIST, s) for s in sizes}
    ours = {(name, s): halo_point(desc, s)
            for name, desc in designs for s in sizes}

    def collect(res):
        series = {name: {s: res[base[s]]["mean_comm_time"]
                         / res[ours[(name, s)]]["mean_comm_time"]
                         for s in sizes}
                  for name, _ in designs}
        return {"series": series}

    return ExperimentSpec(
        list(base.values()) + list(ours.values()), collect,
        lambda payload: format_speedup_series(payload["series"]), SPEEDUP)


@register("ext_halo", "Extension: halo-exchange pattern speedups")
def _build_ext_halo(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return ext_halo_spec(topology=HALO_TOPOLOGY)
    return ext_halo_spec((4, 4), HALO_SIZES_FAST, iterations=3, warmup=1)


# ------------------------------------------------------- ext_autotune

AUTOTUNE_N_USER = 32
AUTOTUNE_SIZE = 2 * MiB
AUTOTUNE_COUNTS = (1, 2, 4, 8, 16, 32)
AUTOTUNE_BANDIT_ITERS = 64
#: A δ grossly above the fig11 late-laggard gap (4 ms): the fixed timer
#: never fires (the laggard always completes its group first), so the
#: design degenerates to plain aggregation and the whole laggard group
#: rides the post-laggard critical path.  The tracker re-targets δ to
#: the observed non-laggard spread and restores the early flush.
AUTOTUNE_BAD_DELTA = us(8000)
AUTOTUNE_LAGGARD_SIZE = 32 * MiB


def _autotune_point(autotune: dict, n_user: int, size: int,
                    iterations: int, warmup: int, compute: float = 0.0,
                    noise: float = 0.0) -> Scenario:
    params = dict(autotune=autotune, n_user=n_user, total_bytes=size,
                  iterations=iterations, warmup=warmup)
    if compute:
        params["compute"] = compute
    if noise:
        params["noise_fraction"] = noise
    return Scenario.make("autotune", **params)


def ext_autotune_spec(n_user=AUTOTUNE_N_USER, size=AUTOTUNE_SIZE,
                      bandit_iters=AUTOTUNE_BANDIT_ITERS,
                      laggard_size=AUTOTUNE_LAGGARD_SIZE,
                      laggard_iters=6, table_iters=3,
                      ptp_iter: Optional[Mapping] = None) -> ExperimentSpec:
    """Closed-loop tuning vs. the paper's open-loop optima.

    Three comparisons: (a) fig08's scenario — a bandit exploring
    ``(n_transport, n_qps, δ)`` arms against the brute-force
    tuning-table optimum at the same workload; (b) the same scenario
    under the plan-mutation policy, which searches by rewriting the
    ``repro.plan`` IR instead of sweeping a fixed grid; (c) fig11's
    late-laggard arrival profile — δ retargeting against a mistuned
    fixed-δ timer.  All series are speedups of the adaptive design
    (1.0 = parity with the offline optimum).
    """
    it = dict(ptp_iter or {"iterations": 10, "warmup": 2})
    table_desc = ["tuning_table", {
        "n_user_counts": [n_user], "message_sizes": [size],
        "iterations": table_iters, "warmup": 1}]
    offline = _overhead(table_desc, n_user, size, it)
    bandit = _autotune_point(
        {"policy": "bandit", "counts": list(AUTOTUNE_COUNTS),
         "deltas": [None, us(35)], "bandit_seed": 7},
        n_user, size, bandit_iters, 2)
    mutation = _autotune_point(
        {"policy": "plan_mutation", "deltas": [None, us(35)],
         "bandit_seed": 7},
        n_user, size, bandit_iters, 2)
    fixed = _perceived(
        ["timer", {"delay": ms(4), "delta": AUTOTUNE_BAD_DELTA}],
        n_user, laggard_size, laggard_iters, 2)
    tracker = _autotune_point(
        {"policy": "delta_tracker", "delta": AUTOTUNE_BAD_DELTA,
         "delay": ms(4), "max_delta": AUTOTUNE_BAD_DELTA},
        n_user, laggard_size, laggard_iters, 2,
        compute=PERCEIVED_COMPUTE, noise=PERCEIVED_NOISE)

    def collect(res):
        offline_time = res[offline]["mean_time"]
        b = res[bandit]
        m = res[mutation]
        convergence = offline_time / b["best_plan_time"]
        mutation_convergence = offline_time / m["best_plan_time"]
        tracker_speedup = (res[tracker]["perceived_bandwidth"]
                           / res[fixed]["perceived_bandwidth"])
        series = {
            "bandit vs offline table": {size: convergence},
            "plan mutation vs offline table": {
                size: mutation_convergence},
            "delta tracker vs fixed delta": {
                laggard_size: tracker_speedup},
        }
        return {
            "series": series,
            "bandit": {
                "best_plan": b["best_plan"],
                "best_plan_time": b["best_plan_time"],
                "offline_time": offline_time,
                "converged_round": b["converged_round"],
                "round_times": b["round_times"],
            },
            "mutation": {
                "best_plan": m["best_plan"],
                "best_plan_time": m["best_plan_time"],
                "converged_round": m["converged_round"],
            },
            "laggard": {
                "fixed_bw": res[fixed]["perceived_bandwidth"],
                "tracker_bw": res[tracker]["perceived_bandwidth"],
                "tracker_plan": res[tracker]["best_plan"],
            },
        }

    def report(payload):
        b, lag = payload["bandit"], payload["laggard"]
        m = payload["mutation"]
        conv = list(
            payload["series"]["bandit vs offline table"].values())[0]
        mconv = list(
            payload["series"]["plan mutation vs offline table"].values())[0]
        track = list(
            payload["series"]["delta tracker vs fixed delta"].values())[0]
        plan = b["best_plan"]
        mplan = m["best_plan"]
        rows = [
            ["bandit best plan",
             f"T={plan['n_transport']} QP={plan['n_qps']} "
             f"delta={plan['delta']}"],
            ["bandit best time", fmt_time(b["best_plan_time"])],
            ["offline table time", fmt_time(b["offline_time"])],
            ["convergence (offline/bandit)", f"{conv:.3f}x"],
            ["converged at round", str(b["converged_round"])],
            ["plan-mutation best plan",
             f"T={mplan['n_transport']} QP={mplan['n_qps']} "
             f"delta={mplan['delta']}"],
            ["plan-mutation best time", fmt_time(m["best_plan_time"])],
            ["convergence (offline/mutation)", f"{mconv:.3f}x"],
            ["fixed-delta bandwidth", fmt_rate(lag["fixed_bw"])],
            ["tracker bandwidth", fmt_rate(lag["tracker_bw"])],
            ["tracker speedup", f"{track:.3f}x"],
        ]
        return format_table(["autotune", "value"], rows)

    return ExperimentSpec([offline, bandit, mutation, fixed, tracker],
                          collect, report, SPEEDUP)


@register("ext_autotune", "Extension: closed-loop autotuning vs. "
                          "offline optima")
def _build_ext_autotune(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return ext_autotune_spec(laggard_iters=10, table_iters=5,
                                 ptp_iter=profile.ptp_iter)
    return ext_autotune_spec(laggard_iters=4, table_iters=3,
                             ptp_iter=profile.ptp_iter)


# ---------------------------------------------------------- ext_stencil

STENCIL_COMPUTE = ms(1)
STENCIL_NOISE = 0.01
STENCIL_FACE = 64 * KiB
STENCIL_PARTITIONS = 32
#: The scaling axis: (grid, threads) pairs — weak scaling over ranks,
#: strong scaling over threads at fixed per-face partition count.
STENCIL_SCALE = (((2, 2), 8), ((4, 4), 8), ((4, 4), 16), ((2, 2, 2), 8))
STENCIL_SCALE_FAST = (((2, 2), 4),)
#: Mixed intra/inter-group placement for the asymmetric-neighbor
#: comparison: on a 4x4 rank grid with 4-node leaves and two leaves per
#: group, row neighbours share a leaf switch while column neighbours
#: cross leaves or groups.
STENCIL_TOPOLOGY = ["dragonfly+", {"nodes_per_leaf": 4,
                                   "leaves_per_group": 2}]
#: Anisotropic faces: the 64 KiB face wants more transport partitions
#: than the 4 KiB face can afford (Table 1 / fig06: T=32 at 4 KiB is
#: *slower* than part_persist), so no single global plan suits both.
STENCIL_ANISO_FACES = (64 * KiB, 4 * KiB)
STENCIL_GLOBAL_PLANS = (2, 8, 32)
STENCIL_BANDIT = {"policy": "bandit", "counts": [2, 8, 32],
                  "deltas": [None], "bandit_seed": 3, "epsilon": 0.3,
                  "decay": 0.85}


def _stencil_point(grid, n_threads: int, face_bytes, it: Mapping,
                   module=None, per_edge: Optional[dict] = None,
                   topology: Optional[Sequence] = None,
                   n_partitions: int = STENCIL_PARTITIONS) -> Scenario:
    params = dict(grid=list(grid), n_threads=n_threads,
                  n_partitions=n_partitions,
                  face_bytes=(face_bytes if isinstance(face_bytes, int)
                              else list(face_bytes)),
                  compute=STENCIL_COMPUTE, noise_fraction=STENCIL_NOISE,
                  iterations=it["iterations"], warmup=it["warmup"])
    if module is not None:
        params["module"] = module
    if per_edge is not None:
        params["per_edge"] = dict(per_edge)
    if topology is not None:
        params["topology"] = list(topology)
    return Scenario.make("stencil", **params)


def ext_stencil_spec(scale=STENCIL_SCALE, face=STENCIL_FACE,
                     scale_iter: Optional[Mapping] = None,
                     asym_iter: Optional[Mapping] = None,
                     global_plans=STENCIL_GLOBAL_PLANS) -> ExperimentSpec:
    """Partitioned neighbor-alltoall stencil: aggregation per edge.

    Two questions: (a) scaling — does native per-edge aggregation beat
    the ``part_persist`` baseline across rank/thread scales on the
    paper-profile stencil; (b) asymmetric neighbors — on a mixed
    intra/inter-group Dragonfly+ layout with anisotropic faces, does an
    autotuned *per-neighbor* plan match or beat every single global
    plan (each edge's bandit converges to its own transport count
    during warmup).
    """
    scale = list(scale)
    scale_it = dict(scale_iter or {"iterations": 6, "warmup": 2})
    # Warmup covers the per-edge bandits' exploration phase, so the
    # measured iterations time the converged plans.
    asym_it = dict(asym_iter or {"iterations": 6, "warmup": 20})

    base = {(tuple(g), t): _stencil_point(g, t, face, scale_it)
            for g, t in scale}
    native = {(tuple(g), t): _stencil_point(g, t, face, scale_it,
                                            module=PLOGGP)
              for g, t in scale}
    asym = dict(grid=(4, 4), n_threads=8, face_bytes=STENCIL_ANISO_FACES,
                topology=STENCIL_TOPOLOGY)
    asym_base = _stencil_point(it=asym_it, **asym)
    asym_global = {
        t: _stencil_point(
            it=asym_it, module=["fixed", {"n_transport": t, "n_qps": 2}],
            **asym)
        for t in global_plans}
    asym_edge = _stencil_point(it=asym_it, per_edge=STENCIL_BANDIT, **asym)

    def label(g, t):
        return f"{'x'.join(map(str, g))} grid, {t}t"

    def collect(res):
        scaling = {
            label(g, t): res[base[(tuple(g), t)]]["mean_comm_time"]
            / res[native[(tuple(g), t)]]["mean_comm_time"]
            for g, t in scale}
        edge_time = res[asym_edge]["mean_comm_time"]
        global_times = {t: res[pt]["mean_comm_time"]
                        for t, pt in asym_global.items()}
        persist_time = res[asym_base]["mean_comm_time"]
        best_t = min(global_times, key=global_times.get)
        series = {
            "native vs persist": scaling,
            "asym: global plan vs persist": {
                f"T={t}": persist_time / v
                for t, v in global_times.items()},
            "asym: per-edge autotuned": {
                "vs persist": persist_time / edge_time,
                "vs best global": global_times[best_t] / edge_time,
            },
        }
        return {
            "series": series,
            "asym": {
                "persist_time": persist_time,
                "global_times": {str(t): v
                                 for t, v in global_times.items()},
                "best_global": best_t,
                "per_edge_time": edge_time,
            },
        }

    def report(payload):
        rows = [[name, f"{v:.3f}x"]
                for name, v in payload["series"]["native vs persist"]
                .items()]
        scaling = format_table(["stencil scale", "native speedup"], rows)
        a = payload["asym"]
        rows = ([["part_persist", fmt_time(a["persist_time"]), ""]]
                + [[f"global T={t}", fmt_time(v),
                    f"{a['persist_time'] / v:.3f}x"]
                   for t, v in a["global_times"].items()]
                + [["per-edge autotuned", fmt_time(a["per_edge_time"]),
                    f"{a['persist_time'] / a['per_edge_time']:.3f}x"]])
        asym_table = format_table(
            ["asymmetric-neighbor design", "comm time", "vs persist"],
            rows)
        return (f"-- scaling (native aggregation vs part_persist) --\n"
                f"{scaling}\n\n-- anisotropic faces on Dragonfly+ "
                f"(per-edge plans) --\n{asym_table}")

    points = (list(base.values()) + list(native.values()) + [asym_base]
              + list(asym_global.values()) + [asym_edge])
    return ExperimentSpec(points, collect, report, SPEEDUP)


@register("ext_stencil", "Extension: partitioned neighbor-alltoall "
                         "stencil with per-edge plans")
def _build_ext_stencil(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return ext_stencil_spec(
            scale_iter={"iterations": 10, "warmup": 3})
    return ext_stencil_spec(
        scale=STENCIL_SCALE_FAST,
        scale_iter={"iterations": 4, "warmup": 1},
        asym_iter={"iterations": 6, "warmup": 20})


# ----------------------------------------------------- ext_model_vs_sim

MVS_N_USER = 32
MVS_CANDIDATES = (1, 2, 8, 32)
MVS_SIZES = (16 * KiB, 256 * KiB, 2 * MiB, 16 * MiB)


def ext_model_vs_sim_spec(sizes=MVS_SIZES, iterations=20, warmup=3,
                          delay=0.0) -> ExperimentSpec:
    sizes = list(sizes)
    it = dict(iterations=iterations, warmup=warmup)
    pts = {(s, n): _overhead(["fixed", {"n_transport": n, "n_qps": 2}],
                             MVS_N_USER, s, it)
           for s in sizes for n in MVS_CANDIDATES}

    def collect(res):
        from repro.model import completion_time, many_before_one
        from repro.model.tables import NIAGARA_LOGGP

        ready = many_before_one(MVS_N_USER, delay)
        out = {}
        for size in sizes:
            model_times = {
                n: completion_time(NIAGARA_LOGGP, size, n,
                                   ready).completion_time
                for n in MVS_CANDIDATES}
            measured_times = {n: res[pts[(size, n)]]["mean_time"]
                              for n in MVS_CANDIDATES}
            out[size] = {
                "model": sorted(MVS_CANDIDATES, key=model_times.get),
                "measured": sorted(MVS_CANDIDATES,
                                   key=measured_times.get),
                "model_times": model_times,
                "measured_times": measured_times,
            }
        hits = sum(1 for size in out
                   if out[size]["model"][0] == out[size]["measured"][0])
        return {"series": {"winner agreement": {"all": hits / len(out)}},
                "comparison": out}

    def report(payload):
        out = payload["comparison"]
        rows = [[fmt_bytes(size), data["model"][0], data["measured"][0],
                 "agree" if data["model"][0] == data["measured"][0]
                 else "differ"]
                for size, data in out.items()]
        table = format_table(
            ["size", "model's best T", "simulator's best T", ""], rows)
        agreement = payload["series"]["winner agreement"]["all"]
        return (f"{table}\n\nwinner agreement: {agreement:.0%} "
                "(the paper found trends agree, thresholds shift)")

    return ExperimentSpec(list(pts.values()), collect, report,
                          Metric("winner agreement"))


@register("ext_model_vs_sim", "Extension: model-vs-simulator validation")
def _build_ext_model_vs_sim(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return ext_model_vs_sim_spec()
    return ext_model_vs_sim_spec((16 * KiB, 16 * MiB), iterations=8,
                                 warmup=2)


# ------------------------------------------------------------- ext_fleet

#: Background-tenant counts on the shared spine (0 = quiet fabric).
FLEET_LEVELS = (0, 1, 2)
#: The ranking cells: the paper-style designs whose order flips under
#: contention (quiet-best T=16 loses to T=4 once the spine is busy).
FLEET_DESIGNS = (
    ("persist", PERSIST),
    ("T=4", ["fixed", {"n_transport": 4, "n_qps": 2}]),
    ("T=8", ["fixed", {"n_transport": 8, "n_qps": 2}]),
    ("T=16", ["fixed", {"n_transport": 16, "n_qps": 2}]),
)
#: The multi-tenant mix for the slowdown profile (fits the 8-node
#: fleet fabric under spread placement: 2 + 3 + 2 nodes).
FLEET_MIX = (
    {"name": "pair", "kind": "pair", "n_ranks": 2, "n_partitions": 16,
     "partition_size": 64 * KiB, "iterations": 6, "warmup": 2},
    {"name": "halo", "kind": "halo", "n_ranks": 3, "n_partitions": 8,
     "partition_size": 64 * KiB, "iterations": 6, "warmup": 2},
)
FLEET_NEIGHBOR = {
    "name": "bg0", "kind": "traffic", "n_ranks": 2,
    "traffic": {"kind": "permutation", "nbytes": 256 * KiB,
                "period": us(30), "horizon": ms(2), "seed": 11}}
#: Policy knobs for the live re-convergence probe.  Windowed cost
#: estimates (``window``) are what let both policies forget the quiet
#: regime fast enough to re-rank the plans mid-run.
FLEET_BANDIT = {"policy": "bandit", "counts": [4, 16], "deltas": [None],
                "epsilon": 0.3, "decay": 0.9, "bandit_seed": 3,
                "window": 4}
FLEET_MUTATION = {"policy": "plan_mutation", "deltas": [None],
                  "epsilon": 0.3, "decay": 0.85, "bandit_seed": 7,
                  "expand_after": 3, "max_frontier": 10, "window": 4}


def ext_fleet_spec(levels=FLEET_LEVELS, designs=FLEET_DESIGNS,
                   rank_iter: Optional[Mapping] = None,
                   mix=FLEET_MIX) -> ExperimentSpec:
    """Shared-fabric fleet: contention ranking, tenancy, live re-tuning.

    Three questions on the routed Dragonfly+ fleet fabric: (a) how does
    the fig08-style transport-design ranking change as background
    tenants congest the spine (level 0 = same routed fabric, quiet, so
    the contended cells are directly comparable); (b) what per-job
    slowdowns does a multi-tenant mix suffer vs each job running alone,
    with and without a noisy neighbor; (c) when a neighbor arrives
    mid-run, do the closed-loop autotuners — the bandit and the
    plan-mutation policy — re-converge onto the congested-optimal plan,
    and at what regret.
    """
    levels, designs = list(levels), list(designs)
    it = dict(rank_iter or {"iterations": 6, "warmup": 2})
    rank = {(name, level): Scenario.make(
                "fleet_rank", module=desc, level=level,
                iterations=it["iterations"], warmup=it["warmup"], seed=0)
            for name, desc in designs for level in levels}
    quiet_mix = Scenario.make("fleet", jobs=list(mix),
                              placement="spread", seed=0)
    noisy_mix = Scenario.make("fleet", jobs=list(mix) + [FLEET_NEIGHBOR],
                              placement="spread", seed=0)
    bandit = Scenario.make(
        "fleet_autotune", autotune=FLEET_BANDIT, quiet_rounds=12,
        congested_rounds=24, tail_rounds=8, compute=2e-5, seed=3)
    mutation = Scenario.make(
        "fleet_autotune", autotune=FLEET_MUTATION, quiet_rounds=12,
        congested_rounds=30, tail_rounds=8, compute=2e-5, seed=3)

    def collect(res):
        times = {level: {name: res[rank[(name, level)]]["mean_time"]
                         for name, _ in designs}
                 for level in levels}
        spine = {level: max(res[rank[(name, level)]]["spine_utilization"]
                            for name, _ in designs)
                 for level in levels}
        series = {
            f"{name} vs persist": {
                level: times[level]["persist"] / times[level][name]
                for level in levels}
            for name, _ in designs if name != "persist"
        }
        quiet, noisy = res[quiet_mix], res[noisy_mix]
        series["slowdown, shared mix"] = dict(quiet["slowdowns"])
        series["slowdown, mix + neighbor"] = dict(noisy["slowdowns"])
        auto = {"bandit": res[bandit], "plan_mutation": res[mutation]}
        series["re-convergence rounds"] = {
            policy: data["rounds_to_reconverge"]
            for policy, data in auto.items()}
        return {
            "series": series,
            "ranking": {str(level): {
                "times": times[level],
                "best": min(times[level], key=times[level].get),
                "spine_utilization": spine[level],
            } for level in levels},
            "slowdowns": {"shared": quiet["slowdowns"],
                          "with_neighbor": noisy["slowdowns"]},
            "autotune": {policy: {
                k: data[k] for k in
                ("quiet_best", "congested_best", "plan_changed",
                 "reconverged_round", "rounds_to_reconverge", "regret",
                 "adapted", "quiet_plan_means", "congested_plan_means")
            } for policy, data in auto.items()},
        }

    def report(payload):
        names = [name for name, _ in designs]
        rows = [[level,
                 *(fmt_time(cell["times"][n]) for n in names),
                 cell["best"], f"{cell['spine_utilization']:.0%}"]
                for level, cell in payload["ranking"].items()]
        ranking = format_table(
            ["bg tenants", *names, "best", "spine util"], rows)
        slow = payload["slowdowns"]
        rows = [[job, f"{slow['shared'].get(job, 1.0):.2f}x",
                 f"{slow['with_neighbor'].get(job, 1.0):.2f}x"]
                for job in sorted(slow["shared"])]
        slowdown = format_table(
            ["job", "shared mix", "mix + neighbor"], rows)
        rows = []
        for policy, a in payload["autotune"].items():
            plan = "->".join(
                f"T={p[0]} QP={p[1]}"
                for p in (a["quiet_best"], a["congested_best"]))
            rows.append([
                policy, plan,
                str(a["rounds_to_reconverge"]),
                fmt_time(a["regret"]),
                "yes" if a["adapted"] else "NO"])
        autotune = format_table(
            ["policy", "plan shift", "re-conv rounds", "regret",
             "adapted"], rows)
        return (f"-- transport ranking vs spine contention --\n{ranking}"
                f"\n\n-- per-job slowdown vs isolated baseline --\n"
                f"{slowdown}\n\n-- live re-convergence (neighbor "
                f"arrives mid-run) --\n{autotune}")

    points = (list(rank.values())
              + [quiet_mix, noisy_mix, bandit, mutation])
    return ExperimentSpec(points, collect, report, SPEEDUP)


@register("ext_fleet", "Extension: shared-fabric fleet — contention "
                       "ranking, tenancy, live re-tuning")
def _build_ext_fleet(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return ext_fleet_spec(rank_iter={"iterations": 10, "warmup": 3})
    return ext_fleet_spec(rank_iter={"iterations": 6, "warmup": 2})


# ----------------------------------------------------------- ext_serve

#: Synthetic service traffic (fast-profile scale in parentheses).
SERVE_CLIENTS = 2000
SERVE_REQUESTS = 20000
SERVE_CLIENTS_FAST = 400
SERVE_REQUESTS_FAST = 4000
SERVE_KEYS = 64
SERVE_ZIPF_S = 1.1
#: Eviction-pressure variant: tiny shard bound forces the
#: confidence-weighted LRU to work.
SERVE_EVICT_BOUND = 4
SERVE_EVICT_SHARDS = 4


def ext_serve_spec(n_clients=SERVE_CLIENTS, n_requests=SERVE_REQUESTS,
                   stress_writers=4, stress_puts=25, cas_puts=15,
                   fleet_iters=24) -> ExperimentSpec:
    """The tuning service under fleet-shaped load.

    Four probes: (a) the serving benchmark — seeded synthetic clients
    with Zipf keys, mixed get/commit, bursty arrivals — measuring the
    cache hit rate and modeled p50/p99 lookup latency; (b) the same
    traffic against a tightly bounded store, exercising the
    confidence-weighted eviction path; (c) the multi-process writer
    stress in both confident-overwrite and compare-and-swap modes,
    whose torn/lost invariants must hold exactly; (d) two fleet
    tenants resolving plans through the service — the warm tenant must
    pin the cold tenant's committed plan (no exploration) and the
    served plan must be bit-identical to a direct store read.

    Latency series are *modeled* (fixed service costs, per-shard FIFO
    queueing), so every series value is a deterministic function of
    the seed; the genuinely nondeterministic stress diagnostics
    (conflict counts, audit read counts) stay out of the series.
    """
    bench = Scenario.make(
        "serve_bench", n_clients=n_clients, n_requests=n_requests,
        n_keys=SERVE_KEYS, zipf_s=SERVE_ZIPF_S, seed=7)
    evict = Scenario.make(
        "serve_bench", n_clients=max(n_clients // 2, 8),
        n_requests=max(n_requests // 2, 64), n_keys=SERVE_KEYS,
        zipf_s=SERVE_ZIPF_S, seed=7, n_shards=SERVE_EVICT_SHARDS,
        max_entries_per_shard=SERVE_EVICT_BOUND,
        cache_capacity=SERVE_EVICT_SHARDS * SERVE_EVICT_BOUND)
    stress = Scenario.make(
        "serve_stress", n_writers=stress_writers, n_puts=stress_puts,
        mode="confident")
    stress_cas = Scenario.make(
        "serve_stress", n_writers=stress_writers, n_puts=cas_puts,
        mode="cas")
    fleet = Scenario.make("serve_fleet", iterations=fleet_iters, seed=0)

    def _integrity(r):
        return 1.0 if (r["lost_updates"] == 0
                       and r["torn_reads"] == 0) else 0.0

    def collect(res):
        b, e, f = res[bench], res[evict], res[fleet]
        cold = f["tenant_mean_iterations"][0]
        warm = f["tenant_mean_iterations"][-1]
        series = {
            "warm-cache hit rate": {n_requests: b["warm_hit_rate"]},
            "overall hit rate": {n_requests: b["hit_rate"]},
            "p50 lookup latency (us)": {
                n_requests: b["p50_latency_us"]},
            "p99 lookup latency (us)": {
                n_requests: b["p99_latency_us"]},
            "bounded-store hit rate": {
                e["n_requests"]: e["hit_rate"]},
            "stress integrity (confident)": {
                stress_writers: _integrity(res[stress])},
            "stress integrity (cas)": {
                stress_writers: _integrity(res[stress_cas])},
            "served plan bit-identical": {
                fleet_iters: 1.0 if f["bit_identical"] else 0.0},
            "warm tenant speedup": {fleet_iters: cold / warm},
        }
        return {
            "series": series,
            "bench": b,
            "eviction": {
                "store_evictions": e["store_evictions"],
                "cache_evictions": e["cache_evictions"],
                "entries": e["entries"],
                "hit_rate": e["hit_rate"],
            },
            # Diagnostics only: scheduling-dependent, never compared.
            "stress": {
                "confident": res[stress],
                "cas": res[stress_cas],
            },
            "fleet": f,
        }

    def report(payload):
        b = payload["bench"]
        e = payload["eviction"]
        sc = payload["stress"]["confident"]
        sx = payload["stress"]["cas"]
        f = payload["fleet"]
        rows = [
            ["clients / requests",
             f"{b['n_clients']} / {b['n_requests']}"],
            ["warm-cache hit rate", f"{b['warm_hit_rate']:.1%}"],
            ["overall hit rate", f"{b['hit_rate']:.1%}"],
            ["p50 / p99 lookup",
             f"{b['p50_latency_us']:.0f} / {b['p99_latency_us']:.0f} us"],
            ["commit conflicts (CAS)", str(b["conflicts"])],
            ["bounded store: evictions",
             f"{e['store_evictions']} (kept {e['entries']})"],
            ["bounded store: hit rate", f"{e['hit_rate']:.1%}"],
            ["stress confident: lost/torn",
             f"{sc['lost_updates']}/{sc['torn_reads']} "
             f"({sc['total_commits']} commits)"],
            ["stress cas: lost/torn",
             f"{sx['lost_updates']}/{sx['torn_reads']} "
             f"({sx['total_conflicts']} conflicts)"],
            ["fleet: warm tenant pinned",
             "yes" if f["warm_skipped_exploration"] else "NO"],
            ["fleet: served == direct read",
             "yes" if f["bit_identical"] else "NO"],
        ]
        return format_table(["serve", "value"], rows)

    return ExperimentSpec([bench, evict, stress, stress_cas, fleet],
                          collect, report,
                          Metric("warm-cache hit rate"))


@register("ext_serve", "Extension: tuning-as-a-service — sharded "
                       "store, cache, concurrent writers")
def _build_ext_serve(profile: Profile) -> ExperimentSpec:
    if profile.name == "paper":
        return ext_serve_spec()
    return ext_serve_spec(n_clients=SERVE_CLIENTS_FAST,
                          n_requests=SERVE_REQUESTS_FAST,
                          stress_writers=3, stress_puts=10, cas_puts=8)
