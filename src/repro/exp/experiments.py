"""Every figure and table of the paper as one row of one table.

:data:`EXPERIMENTS` holds a row (:class:`~repro.exp.registry.Experiment`)
per figure: its name and title, its metric, the series that are better
when lower, the spec function that lays out its sweep points, and that
function's arguments under the ``paper`` and ``fast`` profiles, and its
guidelines: the figure's expected shape, defined next to its spec and
read only at points both profiles' grids share.
``Experiment.build(profile)`` turns any row into its spec.  Every point
list is pinned by ``tests/test_exp/test_scenario_pin.py``.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.bench.reporting import (
    format_bandwidth_series,
    format_delta_table,
    format_speedup_series,
    format_table,
)
from repro.chaos import KINDS as FAULT_KINDS, NATIVE
from repro.exp.kinds import check
from repro.exp.profiles import FAST, PAPER, PERCEIVED_COMPUTE, PERCEIVED_NOISE
from repro.exp.registry import Experiment, ExperimentSpec, Guideline, Metric
from repro.exp.spec import Scenario
from repro.model.tables import TABLE1_PAPER
from repro.units import KiB, MiB, fmt_bytes, fmt_rate, fmt_time, ms, us

#: Shared module descriptors (see :mod:`repro.exp.modules`).
PERSIST = ["persist"]
PLOGGP = ["ploggp", {"delay": ms(4)}]
TIMER_3000US = ["timer", {"delay": ms(4), "delta": us(3000)}]
#: The three designs of Figs. 9 and the fault sweep.
DESIGNS = (("persist", PERSIST), ("ploggp", PLOGGP),
           ("timer(3000us)", TIMER_3000US))
#: Fig. 6's transport-partition counts and Fig. 7's QP counts.
FIG06_TRANSPORTS, FIG07_QPS = (2, 8, 32), (1, 4, 16)

SPEEDUP = Metric("speedup over part_persist", "x")
BANDWIDTH = Metric("perceived bandwidth", "B/s")


def _overhead(module, n_user: int, size: int, it: Mapping,
              config: Optional[dict] = None) -> Scenario:
    params = dict(module=module, n_user=n_user, total_bytes=size,
                  iterations=it["iterations"], warmup=it["warmup"])
    if config is not None:
        params["config"] = config
    return Scenario.make("overhead", **params)


def _perceived(module, n_user: int, size: int, iterations: int,
               warmup: int, loss: float = 0.0) -> Scenario:
    params = dict(module=module, n_user=n_user, total_bytes=size,
                  compute=PERCEIVED_COMPUTE, noise_fraction=PERCEIVED_NOISE,
                  iterations=iterations, warmup=warmup)
    if loss:
        params["loss"] = loss
    return Scenario.make("perceived", **params)


def _sweep(module, grid_shape, n_threads: int, size: int, compute: float,
           noise: float, it: Mapping) -> Scenario:
    return Scenario.make(
        "sweep", module=module, grid=list(grid_shape), n_threads=n_threads,
        total_bytes=size, compute=compute, noise_fraction=noise,
        iterations=it["iterations"], warmup=it["warmup"])


def _speedup(res, pairs: Mapping, field: str) -> dict:
    """``{x: baseline time / design time}`` over ``{x: (baseline, design)}``."""
    return {x: res[base][field] / res[design][field]
            for x, (base, design) in pairs.items()}


def _speedup_spec(points: list, series: Mapping,
                  field: str = "mean_time") -> ExperimentSpec:
    """Speedup over ``part_persist``: ``series`` maps each label to
    ``{x: (baseline point, design point)}``."""
    def collect(res):
        return {"series": {label: _speedup(res, pairs, field)
                           for label, pairs in series.items()}}

    return ExperimentSpec(
        points, collect,
        lambda payload: format_speedup_series(payload["series"]))


def _bandwidth_report(payload) -> str:
    from repro.bench.perceived import single_thread_line

    return format_bandwidth_series(payload["series"],
                                   reference=single_thread_line())


# ---------------------------------------------------------------- fig03


def fig03_spec(sizes=(16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB,
                      16 * MiB, 64 * MiB, 256 * MiB),
               counts=(1, 2, 4, 8, 16, 32), delay=ms(4)) -> ExperimentSpec:
    sizes = list(sizes)
    pts = {n: Scenario.make("model_curve", sizes=sizes, n=n, delay=delay)
           for n in counts}

    def collect(res):
        curves = {n: res[pts[n]]["times"] for n in counts}
        series = {f"{n} parts": dict(zip(sizes, curves[n])) for n in counts}
        return {"series": series, "curves": curves, "sizes": sizes}

    def report(payload):
        curves = payload["curves"]
        rows = []
        for i, size in enumerate(payload["sizes"]):
            best = min(curves, key=lambda n: curves[n][i])
            rows.append([fmt_bytes(size)]
                        + [fmt_time(curves[n][i]) for n in curves]
                        + [best])
        return format_table(
            ["size"] + [f"{n} parts" for n in curves] + ["best"], rows)

    return ExperimentSpec(list(pts.values()), collect, report)


FIG03_GUIDELINES = (
    Guideline("1 partition beats 32 when small", "each message pays o + g",
              lambda p: p["curves"][1][0] < p["curves"][32][0]),
    Guideline("32 partitions beat 1 when large", "early birds beat the delay",
              lambda p: p["curves"][32][-1] < p["curves"][1][-1]),
)


# --------------------------------------------------------------- table1


def table1_spec() -> ExperimentSpec:
    point = Scenario.make("table1")

    def collect(res):
        table = {int(size): n for size, n in res[point]["table"].items()}
        return {"series": {"optimal transport partitions":
                           {size: n for size, n in sorted(table.items())}},
                "table": table}

    def report(payload):
        got = payload["table"]
        rows = [[fmt_bytes(size), want, got[size],
                 "ok" if got[size] == want else "MISMATCH"]
                for size, want in TABLE1_PAPER.items()]
        return format_table(["aggregate size", "paper", "model", ""], rows)

    return ExperimentSpec([point], collect, report)


TABLE1_GUIDELINES = (
    Guideline("every row matches the paper", "PLogGP on Niagara's LogGP",
              lambda p: all(p["table"][size] == n
                            for size, n in TABLE1_PAPER.items())),
)


# ------------------------------------------------------------ fig06 / 07


def fig06_spec(sizes, iter_kwargs, n_user=32, n_qps=2) -> ExperimentSpec:
    base = {s: _overhead(PERSIST, n_user, s, iter_kwargs) for s in sizes}
    agg = {(t, s): _overhead(["fixed", {"n_transport": t, "n_qps": n_qps}],
                             n_user, s, iter_kwargs)
           for t in FIG06_TRANSPORTS for s in sizes}
    return _speedup_spec(
        [*base.values(), *agg.values()],
        {f"T={t}": {s: (base[s], agg[(t, s)]) for s in sizes}
         for t in FIG06_TRANSPORTS})


def fig07_spec(sizes, iter_kwargs, n_user=16,
               config: Optional[dict] = None) -> ExperimentSpec:
    """``config`` is a whole-config descriptor (``dataclasses.asdict`` of
    a ClusterConfig) for every point."""
    base = {s: _overhead(PERSIST, n_user, s, iter_kwargs, config)
            for s in sizes}
    agg = {(q, s): _overhead(["noagg", {"n_qps": q}], n_user, s,
                             iter_kwargs, config)
           for q in FIG07_QPS for s in sizes}
    return _speedup_spec(
        [*base.values(), *agg.values()],
        {f"QP={q}": {s: (base[s], agg[(q, s)]) for s in sizes}
         for q in FIG07_QPS})


def _at(p, label: str, x):
    return p["series"][label][x]


FIG06_GUIDELINES = (
    Guideline("T=2 beats T=32 at 4 KiB", "a WR and a CQE per partition",
              lambda p: _at(p, "T=2", 4 * KiB) > _at(p, "T=32", 4 * KiB)),
    Guideline("every T at 0.85-1.25x at 4 MiB", "the wire saturates",
              lambda p: all(0.85 < s[4 * MiB] < 1.25
                            for s in p["series"].values())),
    # A pinned exception: the paper has a <= 2 % spread at <= 8 KiB.
    Guideline("T=32 at 0.90-1.00x at 4 KiB", "a WR and a CQE per tiny "
              "partition", lambda p: 0.90 < _at(p, "T=32", 4 * KiB) < 1.0),
)

FIG07_GUIDELINES = (
    Guideline("QP count moves 4 KiB < 30 %", "one QP drains a small message",
              lambda p: abs(1 - _at(p, "QP=16", 4 * KiB)
                            / _at(p, "QP=1", 4 * KiB)) < 0.3),
    Guideline("16 QPs beat 1 at 16 MiB", "more WRs in flight at once",
              lambda p: _at(p, "QP=16", 16 * MiB) > _at(p, "QP=1", 16 * MiB)),
    # A pinned exception: one QP falls below the baseline past 2 MiB.
    Guideline("one QP at 0.82-0.92x at 4 and 16 MiB",
              "the per-QP injection-rate cap",
              lambda p: all(0.82 < _at(p, "QP=1", size) < 0.92
                            for size in (4 * MiB, 16 * MiB))),
)


# ---------------------------------------------------------------- fig08


def fig08_spec(user_counts, sizes, iter_kwargs,
               table_iters: int = 5) -> ExperimentSpec:
    base, table, ploggp, series = {}, {}, {}, {}
    for n_user in user_counts:
        usable = [s for s in sizes if s >= n_user]
        table_desc = ["tuning_table", {
            "n_user_counts": [n_user], "message_sizes": usable,
            "iterations": table_iters, "warmup": 1}]
        for s in usable:
            base[(n_user, s)] = _overhead(PERSIST, n_user, s, iter_kwargs)
            table[(n_user, s)] = _overhead(table_desc, n_user, s,
                                           iter_kwargs)
            ploggp[(n_user, s)] = _overhead(PLOGGP, n_user, s, iter_kwargs)
        for name, design in (("tuning-table", table), ("ploggp", ploggp)):
            series[f"{n_user}p {name}"] = {
                s: (base[(n_user, s)], design[(n_user, s)]) for s in usable}
    return _speedup_spec(
        [*base.values(), *table.values(), *ploggp.values()], series)


FIG08_GUIDELINES = (
    Guideline("32p PLogGP > 1.5x at 128 KiB", "a few WRs replace 32 sends",
              lambda p: _at(p, "32p ploggp", 128 * KiB) > 1.5),
    Guideline("32p gains more than 4p at 128 KiB", "more sends to save",
              lambda p: _at(p, "32p ploggp", 128 * KiB)
              > _at(p, "4p ploggp", 128 * KiB)),
    Guideline("table/PLogGP 0.6-1.7x at 32p/128 KiB", "a short, noisy search",
              lambda p: 0.6 < _at(p, "32p tuning-table", 128 * KiB)
              / _at(p, "32p ploggp", 128 * KiB) < 1.7),
    Guideline("every aggregator >= 0.95x of part_persist at every size",
              "a plan never posts more WRs than the baseline's sends",
              lambda p: all(x >= 0.95 for s in p["series"].values()
                            for x in s.values())),
)


# ---------------------------------------------------------------- fig09


def fig09_spec(n_users, sizes, iterations, warmup) -> ExperimentSpec:
    pts = {(n, name, s): _perceived(desc, n, s, iterations, warmup)
           for n in n_users for name, desc in DESIGNS for s in sizes}

    def label(n, name):
        return name if len(n_users) == 1 else f"{n}p {name}"

    def collect(res):
        series = {
            label(n, name): {
                s: res[pts[(n, name, s)]]["perceived_bandwidth"]
                for s in sizes}
            for n in n_users for name, _ in DESIGNS
        }
        return {"series": series}

    return ExperimentSpec(list(pts.values()), collect, _bandwidth_report)


def _above_single_thread_line(p) -> bool:
    from repro.bench.perceived import single_thread_line

    line = single_thread_line()
    return all(s[8 * MiB] > line for s in p["series"].values())


def _ploggp_trails(other: str):
    """PLogGP below ``other`` at 8 MiB, at every partition count."""
    return lambda p: all(
        s[8 * MiB] < p["series"][label[:-6] + other][8 * MiB]
        for label, s in p["series"].items() if label.endswith("ploggp"))


FIG09_GUIDELINES = (
    Guideline("every design beats the single-thread line at 8 MiB",
              "early birds cross inside the laggard's delay",
              _above_single_thread_line),
    Guideline("PLogGP trails persist at 8 MiB", "its groups wait for the "
              "laggard", _ploggp_trails("persist")),
    Guideline("PLogGP trails the timer at 8 MiB", "the timer flushes after "
              "delta", _ploggp_trails("timer(3000us)")),
)


# ----------------------------------------------------------- fig10 / 11


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
                         n_user: int = 32) -> ExperimentSpec:
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

    return ExperimentSpec([point], collect, report)


FIG10_GUIDELINES = (
    Guideline("no early partition is late", "31 x 256 KiB drain in ~4 ms",
              lambda p: _at(p, "arrival", "early_bird_fraction") == 1.0),
    Guideline("laggard delay 3-6 ms", "4 % noise on 100 ms compute",
              lambda p: 3e-3 < _at(p, "arrival", "laggard_time") < 6e-3),
)

FIG11_GUIDELINES = (
    Guideline("early birds 0.2-0.55 (paper: 3/8)", "124 MiB outlast ~4 ms",
              lambda p: 0.2 < _at(p, "arrival", "early_bird_fraction") < 0.55),
)


# ---------------------------------------------------------------- fig12


def fig12_spec(sizes=(1 * MiB, 8 * MiB, 64 * MiB),
               counts=(4, 8, 16, 32, 64, 128), iterations=5,
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

    return ExperimentSpec(list(pts.values()), collect, report)


FIG12_GUIDELINES = (
    Guideline("minimum delta grows with partitions at 8 MiB",
              "more threads take turns on the arrival atomics",
              lambda p: _at(p, "min delta", f"{8 * MiB}/16p")
              < _at(p, "min delta", f"{8 * MiB}/32p")
              < _at(p, "min delta", f"{8 * MiB}/128p")),
    Guideline("minimum delta at 32p/8 MiB 2-300 us (paper: ~35 us)",
              "atomic turns, not the compute phase",
              lambda p: 2e-6 < _at(p, "min delta", f"{8 * MiB}/32p") < 3e-4),
)


# ---------------------------------------------------------------- fig13


def fig13_spec(sizes, iterations, warmup, deltas=(us(10), us(35), us(100)),
               n_user=32) -> ExperimentSpec:
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

    return ExperimentSpec(list(pts.values()), collect, _bandwidth_report)


def _worst_delta_spread(p) -> float:
    """The largest relative spread across delta at sizes >= 8 MiB (below,
    a few-microsecond latency makes any reordering look large)."""
    s = p["series"]
    return max((max(col) - min(col)) / min(col)
               for col in ([s[label][x] for label in s]
                           for x in next(iter(s.values())) if x >= 8 * MiB))


FIG13_GUIDELINES = (
    Guideline("delta 10-100 us moves bandwidth < 15 % (paper: 6.15 %)",
              "the laggard, not delta, sets the completion",
              lambda p: _worst_delta_spread(p) < 0.15),
)


# ---------------------------------------------------------------- fig14

#: (label, compute, noise fraction) -> laggard delay of 10/40/400 us.
FIG14_NOISE_POINTS = (
    ("14a: 1ms+1% (10us)", 1e-3, 0.01),
    ("14b: 1ms+4% (40us)", 1e-3, 0.04),
    ("14c: 10ms+4% (400us)", 10e-3, 0.04),
)


def fig14_spec(grid_shape, sizes, noise_points, iter_kwargs, n_threads=16,
               timer_delta=us(8)) -> ExperimentSpec:
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
    return _speedup_spec(
        [*base.values(), *ours.values()],
        {f"{label} {name}": {s: (base[(label, s)], ours[(label, name, s)])
                             for s in sizes}
         for label, _, _ in noise_points for name, _ in designs},
        "mean_comm_time")


FIG14_GUIDELINES = (
    Guideline("14a PLogGP > 1.25x at 256 KiB", "a 10 us laggard is short",
              lambda p: _at(p, "14a: 1ms+1% (10us) ploggp", 256 * KiB) > 1.25),
    Guideline("14b timer beats PLogGP at 256 KiB", "static groups wait 40 us",
              lambda p: _at(p, "14b: 1ms+4% (40us) timer", 256 * KiB)
              > _at(p, "14b: 1ms+4% (40us) ploggp", 256 * KiB)),
)


# -------------------------------------------------------- ext_ablations

ABL_N_USER = 32
#: Below the ~20 us natural arrival spread of 32 threads at 100 ms
#: compute, so the flush regularly catches non-contiguous holes.
ABL_TIGHT_DELTA = us(5)


def _sg_spec(sizes, iterations, warmup) -> ExperimentSpec:
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

    return ExperimentSpec(list(pts.values()), collect, report)


def _adaptive_spec(iterations, size=256 * KiB, warmup=1) -> ExperimentSpec:
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
        speedups = _speedup(res, {name: (base, pt)
                                  for name, pt in ours.items()},
                            "mean_comm_time")
        return {"series": {"adaptive ablation": speedups},
                "speedups": speedups}

    def report(payload):
        rows = [[name, f"{v:.3f}x"]
                for name, v in payload["speedups"].items()]
        return format_table(["delta policy", "comm speedup"], rows)

    return ExperimentSpec([base] + list(ours.values()), collect, report)


def ext_ablations_spec(sg_sizes=(8 * MiB, 32 * MiB), sg_iterations=6,
                       sg_warmup=2, adaptive_iterations=4) -> ExperimentSpec:
    """The scatter/gather flush and the adaptive δ, each against its
    fixed alternative."""
    sg = _sg_spec(sg_sizes, sg_iterations, sg_warmup)
    adaptive = _adaptive_spec(adaptive_iterations)

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

    return ExperimentSpec(sg.points + adaptive.points, collect, report)


def _wrs_per_round(p, flush: str) -> float:
    return next(wrs for name, size, _, wrs in p["sg"]["rows"]
                if name == flush and size == 8 * MiB)


EXT_ABLATIONS_GUIDELINES = (
    Guideline("SG posts no more WRs than runs", "one WR per hole-y flush",
              lambda p: _wrs_per_round(p, "sg") <= _wrs_per_round(p, "runs")),
    Guideline("runs keeps 90 % of SG's bandwidth", "SG's staging copy-out",
              lambda p: _at(p, "runs", 8 * MiB)
              >= 0.9 * _at(p, "sg", 8 * MiB)),
    Guideline("tuned delta beats oversized", "it blocks the other request",
              lambda p: _at(p, "adaptive ablation", "fixed good (8us)")
              > _at(p, "adaptive ablation", "fixed bad (200us)")),
    Guideline("adaptive delta beats its seed", "it tracks the arrival spread",
              lambda p: _at(p, "adaptive ablation", "adaptive (seed 200us)")
              > _at(p, "adaptive ablation", "fixed bad (200us)")),
)


# ----------------------------------------------------------- ext_faults


def ext_faults_spec(n_user=16, total_bytes=32 * MiB,
                    losses=(0.0, 1e-5, 1e-4, 1e-3), iterations=10,
                    warmup=3) -> ExperimentSpec:
    pts = {(loss, name): _perceived(desc, n_user, total_bytes, iterations,
                                    warmup, loss=loss)
           for loss in losses for name, desc in DESIGNS}

    def collect(res):
        rows = [[loss, name, res[pt]["perceived_bandwidth"],
                 res[pt]["retransmits"]]
                for (loss, name), pt in pts.items()]
        series = {name: {f"{loss:g}": bw
                         for loss, n, bw, _ in rows if n == name}
                  for name, _ in DESIGNS}
        return {"series": series, "rows": rows}

    def report(payload):
        table = {}
        for loss, name, bw, rexmt in payload["rows"]:
            table.setdefault(loss, {})[name] = (bw, rexmt)
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

    return ExperimentSpec(list(pts.values()), collect, report)


EXT_FAULTS_GUIDELINES = (
    Guideline("no retransmits without loss", "no loss, no fault injection",
              lambda p: all(rexmt == 0 for loss, _, _, rexmt in p["rows"]
                            if loss == 0.0)),
    Guideline("every design completes at 0.1 % loss", "RC retransmits",
              lambda p: all(bw > 0 for loss, _, bw, _ in p["rows"]
                            if loss == 1e-3)),
)


# ------------------------------------------------------------- ext_halo


def ext_halo_spec(grid_shape=(8, 8),
                  sizes=(64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB),
                  iterations=10, warmup=3,
                  topology: Optional[Sequence] = None,
                  n_threads=16) -> ExperimentSpec:
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
    return _speedup_spec(
        [*base.values(), *ours.values()],
        {name: {s: (base[s], ours[(name, s)]) for s in sizes}
         for name, _ in designs},
        "mean_comm_time")


EXT_HALO_GUIDELINES = (
    Guideline("PLogGP > 1.2x at 256 KiB faces", "fewer sends at every rank",
              lambda p: _at(p, "ploggp", 256 * KiB) > 1.2),
)


# ------------------------------------------------------- ext_autotune

#: A δ grossly above the fig11 late-laggard gap (4 ms): the fixed timer
#: never fires (the laggard always completes its group first), so the
#: design degenerates to plain aggregation and the whole laggard group
#: rides the post-laggard critical path.  The tracker re-targets δ to
#: the observed non-laggard spread and restores the early flush.
AUTOTUNE_BAD_DELTA = us(8000)
#: The bandit's and mutation walk's rounds, and the laggard comparison's
#: message size.
AUTOTUNE_BANDIT_ITERS, AUTOTUNE_LAGGARD_SIZE = 64, 32 * MiB


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


def ext_autotune_spec(iter_kwargs, laggard_iters, table_iters, n_user=32,
                      size=2 * MiB) -> ExperimentSpec:
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
    table_desc = ["tuning_table", {
        "n_user_counts": [n_user], "message_sizes": [size],
        "iterations": table_iters, "warmup": 1}]
    offline = _overhead(table_desc, n_user, size, iter_kwargs)
    bandit = _autotune_point(
        {"policy": "bandit", "counts": [1, 2, 4, 8, 16, 32],
         "deltas": [None, us(35)], "bandit_seed": 7},
        n_user, size, AUTOTUNE_BANDIT_ITERS, 2)
    mutation = _autotune_point(
        {"policy": "plan_mutation", "deltas": [None, us(35)],
         "bandit_seed": 7},
        n_user, size, AUTOTUNE_BANDIT_ITERS, 2)
    fixed = _perceived(
        ["timer", {"delay": ms(4), "delta": AUTOTUNE_BAD_DELTA}],
        n_user, AUTOTUNE_LAGGARD_SIZE, laggard_iters, 2)
    tracker = _autotune_point(
        {"policy": "delta_tracker", "delta": AUTOTUNE_BAD_DELTA,
         "delay": ms(4), "max_delta": AUTOTUNE_BAD_DELTA},
        n_user, AUTOTUNE_LAGGARD_SIZE, laggard_iters, 2,
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
                AUTOTUNE_LAGGARD_SIZE: tracker_speedup},
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
                          collect, report)


EXT_AUTOTUNE_GUIDELINES = (
    Guideline("bandit within 5 % of the table", "seeded arms, 64 rounds",
              lambda p: _at(p, "bandit vs offline table", 2 * MiB)
              >= 1 / 1.05),
    Guideline("delta tracker beats a mistuned delta", "8 ms never fires first",
              lambda p: _at(p, "delta tracker vs fixed delta", 32 * MiB) > 1),
)


# ---------------------------------------------------------- ext_stencil

STENCIL_PARTITIONS = 32
#: The scaling half's face, and the global plans (transport partitions)
#: the per-edge autotuner is judged against.
STENCIL_FACE, STENCIL_GLOBAL_PLANS = 64 * KiB, (2, 8, 32)
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
                  compute=ms(1), noise_fraction=0.01,
                  iterations=it["iterations"], warmup=it["warmup"])
    if module is not None:
        params["module"] = module
    if per_edge is not None:
        params["per_edge"] = dict(per_edge)
    if topology is not None:
        params["topology"] = list(topology)
    return Scenario.make("stencil", **params)


def ext_stencil_spec(scale, scale_iter) -> ExperimentSpec:
    """Partitioned neighbor-alltoall stencil: aggregation per edge.

    Two questions: (a) scaling — does native per-edge aggregation beat
    the ``part_persist`` baseline across the ``scale`` axis of
    ``(grid, threads)`` pairs on the paper-profile stencil; (b)
    asymmetric neighbors — on a mixed intra/inter-group Dragonfly+
    layout with anisotropic faces, does an autotuned *per-neighbor*
    plan match or beat every single global plan (each edge's bandit
    converges to its own transport count during warmup).
    """
    # Warmup covers the per-edge bandits' exploration phase, so the
    # measured iterations time the converged plans.
    asym_it = {"iterations": 6, "warmup": 20}

    base = {(tuple(g), t): _stencil_point(g, t, STENCIL_FACE, scale_iter)
            for g, t in scale}
    native = {(tuple(g), t): _stencil_point(g, t, STENCIL_FACE, scale_iter,
                                            module=PLOGGP)
              for g, t in scale}
    asym = dict(grid=(4, 4), n_threads=8, face_bytes=STENCIL_ANISO_FACES,
                topology=STENCIL_TOPOLOGY)
    asym_base = _stencil_point(it=asym_it, **asym)
    asym_global = {
        t: _stencil_point(
            it=asym_it, module=["fixed", {"n_transport": t, "n_qps": 2}],
            **asym)
        for t in STENCIL_GLOBAL_PLANS}
    asym_edge = _stencil_point(it=asym_it, per_edge=STENCIL_BANDIT, **asym)

    def collect(res):
        scaling = _speedup(
            res, {f"{'x'.join(map(str, g))} grid, {t}t":
                  (base[(tuple(g), t)], native[(tuple(g), t)])
                  for g, t in scale},
            "mean_comm_time")
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
    return ExperimentSpec(points, collect, report)


EXT_STENCIL_GUIDELINES = (
    Guideline("native beats part_persist at every scale", "fewer sends",
              lambda p: all(v > 1 for v in
                            p["series"]["native vs persist"].values())),
    Guideline("per-edge plans beat part_persist", "each edge picks its own T",
              lambda p: _at(p, "asym: per-edge autotuned", "vs persist") > 1),
    Guideline("per-edge plans within 5 % of the best global plan",
              "no one transport count suits 64 KiB and 4 KiB faces",
              lambda p: _at(p, "asym: per-edge autotuned", "vs best global")
              >= 1 / 1.05),
)


# ----------------------------------------------------- ext_model_vs_sim

MVS_N_USER = 32
MVS_CANDIDATES = (1, 2, 8, 32)


def ext_model_vs_sim_spec(sizes=(16 * KiB, 256 * KiB, 2 * MiB, 16 * MiB),
                          iterations=20, warmup=3,
                          delay=0.0) -> ExperimentSpec:
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

    return ExperimentSpec(list(pts.values()), collect, report)


def _more_partitions_when_large(p) -> bool:
    """Both worlds favour more partitions at 16 MiB than at 16 KiB: a
    larger winner, or 32 ranked no worse."""
    small, large = p["comparison"][16 * KiB], p["comparison"][16 * MiB]
    return all(large[w][0] >= small[w][0]
               or large[w].index(32) <= small[w].index(32)
               for w in ("model", "measured"))


EXT_MODEL_VS_SIM_GUIDELINES = (
    Guideline("model and simulator favour more partitions when large",
              "trends hold, thresholds shift (Section V-B1)",
              _more_partitions_when_large),
    Guideline("every measured time is positive", "every point completes",
              lambda p: all(t > 0 for c in p["comparison"].values()
                            for t in c["measured_times"].values())),
)


# ------------------------------------------------------------- ext_fleet

#: The ranking cells: the paper-style designs whose order flips under
#: contention (quiet-best T=16 loses to T=4 once the spine is busy).
FLEET_DESIGNS = (
    ("persist", PERSIST),
    ("T=4", ["fixed", {"n_transport": 4, "n_qps": 2}]),
    ("T=8", ["fixed", {"n_transport": 8, "n_qps": 2}]),
    ("T=16", ["fixed", {"n_transport": 16, "n_qps": 2}]),
)
#: Background-tenant levels of the contention ranking (0 = quiet).
FLEET_LEVELS = (0, 1, 2)
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


def ext_fleet_spec(rank_iter) -> ExperimentSpec:
    """Shared-fabric fleet: contention ranking, tenancy, live re-tuning.

    Three questions on the routed Dragonfly+ fleet fabric: (a) how does
    the fig08-style transport-design ranking change as ``FLEET_LEVELS``
    of background tenants congest the spine (level 0 = same routed
    fabric, quiet, so the contended cells are directly comparable); (b)
    what per-job slowdowns does a multi-tenant mix suffer vs each job
    running alone, with and without a noisy neighbor; (c) when a
    neighbor arrives mid-run, do the closed-loop autotuners — the
    bandit and the plan-mutation policy — re-converge onto the
    congested-optimal plan, and at what regret.
    """
    rank = {(name, level): Scenario.make(
                "fleet_rank", module=desc, level=level,
                iterations=rank_iter["iterations"],
                warmup=rank_iter["warmup"], seed=0)
            for name, desc in FLEET_DESIGNS for level in FLEET_LEVELS}
    quiet_mix = Scenario.make("fleet", jobs=list(FLEET_MIX),
                              placement="spread", seed=0)
    noisy_mix = Scenario.make("fleet",
                              jobs=list(FLEET_MIX) + [FLEET_NEIGHBOR],
                              placement="spread", seed=0)
    bandit = Scenario.make(
        "fleet_autotune", autotune=FLEET_BANDIT, quiet_rounds=12,
        congested_rounds=24, tail_rounds=8, compute=2e-5, seed=3)
    mutation = Scenario.make(
        "fleet_autotune", autotune=FLEET_MUTATION, quiet_rounds=12,
        congested_rounds=30, tail_rounds=8, compute=2e-5, seed=3)

    def collect(res):
        times = {level: {name: res[rank[(name, level)]]["mean_time"]
                         for name, _ in FLEET_DESIGNS}
                 for level in FLEET_LEVELS}
        spine = {level: max(res[rank[(name, level)]]["spine_utilization"]
                            for name, _ in FLEET_DESIGNS)
                 for level in FLEET_LEVELS}
        series = {
            f"{name} vs persist": _speedup(
                res, {level: (rank[("persist", level)], rank[(name, level)])
                      for level in FLEET_LEVELS}, "mean_time")
            for name, _ in FLEET_DESIGNS if name != "persist"
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
            } for level in FLEET_LEVELS},
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
        names = [name for name, _ in FLEET_DESIGNS]
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
    return ExperimentSpec(points, collect, report)


def _times(p, level: str) -> dict:
    return p["ranking"][level]["times"]


EXT_FLEET_GUIDELINES = (
    Guideline("T=16 beats T=4 on the quiet fabric", "an idle spine pipelines",
              lambda p: _times(p, "0")["T=16"] < _times(p, "0")["T=4"]),
    Guideline("T=4 beats T=16 under contention", "per-chunk arbitration",
              lambda p: all(_times(p, lvl)["T=4"] < _times(p, lvl)["T=16"]
                            for lvl in ("1", "2"))),
    Guideline("part_persist never wins under contention", "the most chunks",
              lambda p: all(p["ranking"][lvl]["best"] != "persist"
                            for lvl in ("1", "2"))),
    Guideline("contention slows every design", "tenants share the spine",
              lambda p: all(_times(p, "2")[name] > _times(p, "0")[name]
                            for name in ("persist", "T=4", "T=16"))),
    Guideline("every tenant slows > 5 % in the shared mix", "shared links",
              lambda p: all(v > 1.05
                            for v in p["slowdowns"]["shared"].values())),
    Guideline("a noisy neighbour slows every tenant further", "spine load",
              lambda p: all(p["slowdowns"]["with_neighbor"][job] > v
                            for job, v in p["slowdowns"]["shared"].items())),
    Guideline("both live policies adapt", "windowed cost estimates",
              lambda p: all(a["adapted"] for a in p["autotune"].values())),
    Guideline("both policies leave the quiet-best plan", "a new optimum",
              lambda p: all(a["quiet_best"] != a["congested_best"]
                            for a in p["autotune"].values())),
    Guideline("both policies re-converge", "they re-rank while congested",
              lambda p: all(a["rounds_to_reconverge"] is not None
                            for a in p["autotune"].values())),
)


# ----------------------------------------------------------- ext_serve

SERVE_KEYS = 64
SERVE_ZIPF_S = 1.1
#: Eviction-pressure variant: tiny shard bound forces the
#: confidence-weighted LRU to work.
SERVE_EVICT_BOUND = 4
SERVE_EVICT_SHARDS = 4
#: Rounds each served tenant runs in the fleet probe.
SERVE_FLEET_ITERS = 24


def ext_serve_spec(n_clients=2000, n_requests=20000, stress_writers=4,
                   stress_puts=25, cas_puts=15) -> ExperimentSpec:
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
    fleet = Scenario.make("serve_fleet", iterations=SERVE_FLEET_ITERS,
                          seed=0)

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
                SERVE_FLEET_ITERS: 1.0 if f["bit_identical"] else 0.0},
            "warm tenant speedup": {SERVE_FLEET_ITERS: cold / warm},
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
                          collect, report)


EXT_SERVE_GUIDELINES = (
    Guideline("warm-cache hit rate > 90 %", "Zipf keys keep a hot set",
              lambda p: p["bench"]["warm_hit_rate"] > 0.9),
    Guideline("p50 lookup < 10 us", "hits cost a cache read, not a backend",
              lambda p: p["bench"]["p50_latency_us"] < 10.0),
    Guideline("p99 lookup < 500 us", "the tail is queueing, not collapse",
              lambda p: p["bench"]["p99_latency_us"] < 500.0),
    Guideline("stale CAS commits conflict", "clients commit stale views",
              lambda p: p["bench"]["conflicts"] > 0),
    # lost_updates is total_commits - final_version, so this also holds
    # the final version to the count of successful commits.
    Guideline("no lost update", "flock serialises every commit",
              lambda p: all(s["lost_updates"] == 0
                            for s in p["stress"].values())),
    Guideline("no torn read", "os.replace swaps whole entry files",
              lambda p: all(s["torn_reads"] == 0
                            for s in p["stress"].values())),
    Guideline("CAS conflicts >= writers - 1", "first commits expect version 0",
              lambda p: p["stress"]["cas"]["total_conflicts"]
              >= p["stress"]["cas"]["n_writers"] - 1),
    Guideline("the bounded store evicts", "4 x 4 entries < 64 keys",
              lambda p: p["eviction"]["store_evictions"] > 0),
    Guideline("the bounded store keeps <= 16 entries", "the shard bound",
              lambda p: p["eviction"]["entries"]
              <= SERVE_EVICT_SHARDS * SERVE_EVICT_BOUND),
    Guideline("the warm tenant skips exploration", "the cold one committed",
              lambda p: p["fleet"]["warm_skipped_exploration"]),
    Guideline("served plan = direct store read", "the cache never rewrites",
              lambda p: p["fleet"]["bit_identical"]),
    Guideline("only the cold tenant explores", "the store is empty once",
              lambda p: p["fleet"]["tenant_explored"] == [True, False]),
)


# ----------------------------------------------------------- ext_chaos

#: The workloads every profile's campaign cycles.
CHAOS_WORKLOADS = ("ext_stencil", "pallreduce", "pbcast", "fleet")


def ext_chaos_spec(workloads, runs: int, seed: int, ladder: bool,
                   kinds=FAULT_KINDS, horizon: float = 2.5e-3,
                   max_duration: float = 1.0,
                   module=NATIVE) -> ExperimentSpec:
    """A seeded chaos campaign: ``runs`` randomized fault runs.

    Run ``i`` is the ``chaos`` point of workload ``i % len(workloads)``
    under fault kind ``i % len(kinds)``, replayable alone from the
    campaign ``seed`` and ``i`` (``repro-bench point chaos``).  Each
    point is read by the kind's parsers (a bad argument is a usage
    error); its result is the run's failure bundle.
    """
    points = [check("chaos", dict(
        workload=workloads[i % len(workloads)], fault=kinds[i % len(kinds)],
        seed=seed, index=i, horizon=horizon, max_duration=max_duration,
        module=module, ladder=ladder)) for i in range(runs)]

    def collect(res):
        bundles = [res[point] for point in points]
        held: dict[str, list] = {}
        for bundle in bundles:
            held.setdefault(bundle["workload"], []).append(
                not bundle["violations"])
        return {"series": {"runs upholding every invariant": {
                    name: sum(ok) / len(ok) for name, ok in held.items()}},
                "kinds": list(kinds), "runs": bundles}

    def report(payload):
        bundles = payload["runs"]
        lines = [
            f"chaos campaign: {len(bundles)} runs, seed {seed}, workloads "
            f"{', '.join(workloads)}" + (", ladder on" if ladder else ""),
            "kinds covered: "
            + ", ".join(sorted({r["kind"] for r in bundles})),
        ]
        rows = []
        totals: dict[str, int] = {}
        for r in bundles:
            c = r["counters"]
            rows.append([
                r["index"], r["workload"], r["kind"], r["seed"],
                f"{r['duration'] * 1e3:.2f}ms" if r["completed"] else "-",
                c.get("ib.retry_exhausted", 0), c.get("ib.reconnects", 0),
                c.get("chaos.ladder_demotions", 0),
                "; ".join(r["violations"]) or "ok"])
            for name, value in c.items():
                if name.startswith("chaos."):
                    totals[name] = totals.get(name, 0) + value
        lines.append(format_table(
            ["run", "workload", "kind", "seed", "time", "retry_exh",
             "reconn", "demote", "verdict"], rows))
        if totals:
            lines.append("chaos counters: " + ", ".join(
                f"{name.removeprefix('chaos.')}={value}"
                for name, value in sorted(totals.items())))
        failed = [r for r in bundles if r["violations"]]
        lines.append(
            f"{sum(len(r['violations']) for r in failed)} violation(s) in "
            f"{len(failed)} run(s)" if failed else "all invariants held")
        return "\n".join(lines)

    return ExperimentSpec(points, collect, report)


EXT_CHAOS_GUIDELINES = (
    Guideline("every run upholds every invariant", "replay, dedup and the "
              "ladder recover every fault exactly once",
              lambda p: not any(r["violations"] for r in p["runs"])),
    Guideline("every fault kind ran", "the runs cycle the fault kinds",
              lambda p: {r["kind"] for r in p["runs"]}
              >= set(p["kinds"][:len(p["runs"])])),
)


# ------------------------------------------------------------ the table

#: One row per figure: ``Experiment(name, title, metric, spec, guidelines,
#: lower_is_better, paper, fast)``; ``paper``/``fast`` are the spec's
#: arguments under each profile (none: its defaults).
EXPERIMENTS: dict[str, Experiment] = {row.name: row for row in (
    Experiment("fig03", "Fig. 3: PLogGP-modelled completion times",
               Metric("modelled completion time", "s",
                      higher_is_better=False), fig03_spec,
               FIG03_GUIDELINES),
    Experiment("table1", "Table I: optimal transport partitions",
               Metric("optimal transport partitions"), table1_spec,
               TABLE1_GUIDELINES),
    Experiment("fig06", "Fig. 6: overhead vs. transport-partition count",
               SPEEDUP, fig06_spec, FIG06_GUIDELINES,
               paper=dict(sizes=PAPER.overhead_sizes,
                          iter_kwargs=PAPER.ptp_iter),
               fast=dict(sizes=FAST.overhead_sizes,
                         iter_kwargs=FAST.ptp_iter)),
    # The QP effect needs a wire-saturating point (Section V-B1): the
    # fast grid gains 16 MiB, which the paper grid already ends on.
    Experiment("fig07", "Fig. 7: overhead vs. QP count", SPEEDUP,
               fig07_spec, FIG07_GUIDELINES,
               paper=dict(sizes=PAPER.overhead_sizes,
                          iter_kwargs=PAPER.ptp_iter),
               fast=dict(sizes=FAST.overhead_sizes + (16 * MiB,),
                         iter_kwargs=FAST.ptp_iter)),
    Experiment("fig08", "Fig. 8: tuning-table vs. PLogGP aggregator",
               SPEEDUP, fig08_spec, FIG08_GUIDELINES,
               paper=dict(user_counts=(4, 32, 128),
                          sizes=(4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB,
                                 512 * KiB, 2 * MiB, 8 * MiB),
                          iter_kwargs=PAPER.ptp_iter, table_iters=5),
               fast=dict(user_counts=(4, 32),
                         sizes=(16 * KiB, 128 * KiB, 2 * MiB),
                         iter_kwargs=FAST.ptp_iter, table_iters=3)),
    Experiment("fig09", "Fig. 9: perceived bandwidth of the three designs",
               BANDWIDTH, fig09_spec, FIG09_GUIDELINES,
               paper=dict(n_users=(16, 32), sizes=PAPER.perceived_sizes,
                          iterations=PAPER.perceived_iterations,
                          warmup=PAPER.perceived_warmup),
               fast=dict(n_users=(32,), sizes=FAST.perceived_sizes,
                         iterations=FAST.perceived_iterations,
                         warmup=FAST.perceived_warmup)),
    Experiment("fig10", "Fig. 10: arrival profile, 8 MiB",
               Metric("early-bird fraction"), arrival_profile_spec,
               FIG10_GUIDELINES,
               paper=dict(total_bytes=8 * MiB,
                          iterations=PAPER.perceived_iterations,
                          warmup=PAPER.perceived_warmup),
               fast=dict(total_bytes=8 * MiB,
                         iterations=FAST.perceived_iterations,
                         warmup=FAST.perceived_warmup)),
    Experiment("fig11", "Fig. 11: arrival profile, 128 MiB",
               Metric("early-bird fraction"), arrival_profile_spec,
               FIG11_GUIDELINES,
               paper=dict(total_bytes=128 * MiB,
                          iterations=PAPER.perceived_iterations,
                          warmup=PAPER.perceived_warmup),
               fast=dict(total_bytes=128 * MiB,
                         iterations=FAST.perceived_iterations,
                         warmup=FAST.perceived_warmup)),
    Experiment("fig12", "Fig. 12: estimated minimum delta",
               Metric("minimum delta", "s", higher_is_better=False),
               fig12_spec, FIG12_GUIDELINES,
               fast=dict(sizes=(8 * MiB,), counts=(16, 32, 128),
                         iterations=3, warmup=1)),
    Experiment("fig13", "Fig. 13: perceived bandwidth across a delta window",
               BANDWIDTH, fig13_spec, FIG13_GUIDELINES,
               paper=dict(sizes=PAPER.perceived_sizes,
                          iterations=PAPER.perceived_iterations,
                          warmup=PAPER.perceived_warmup),
               fast=dict(sizes=FAST.perceived_sizes, iterations=4,
                         warmup=1)),
    Experiment("fig14", "Fig. 14: Sweep3D communication speedup", SPEEDUP,
               fig14_spec, FIG14_GUIDELINES,
               paper=dict(grid_shape=(8, 8), sizes=PAPER.sweep_sizes,
                          noise_points=FIG14_NOISE_POINTS,
                          iter_kwargs=PAPER.sweep_iter),
               fast=dict(grid_shape=(4, 4), sizes=FAST.sweep_sizes,
                         noise_points=FIG14_NOISE_POINTS[:2],
                         iter_kwargs=FAST.sweep_iter)),
    Experiment("ext_ablations",
               "Extension: SG-flush and adaptive-delta ablations",
               BANDWIDTH, ext_ablations_spec, EXT_ABLATIONS_GUIDELINES,
               paper=dict(adaptive_iterations=6),
               fast=dict(sg_sizes=(8 * MiB,), sg_iterations=4,
                         sg_warmup=1)),
    Experiment("ext_faults",
               "Extension: perceived bandwidth under chunk loss",
               BANDWIDTH, ext_faults_spec, EXT_FAULTS_GUIDELINES,
               fast=dict(n_user=8, total_bytes=8 * MiB, losses=(0.0, 1e-3),
                         iterations=3, warmup=1)),
    Experiment("ext_halo", "Extension: halo-exchange pattern speedups",
               SPEEDUP, ext_halo_spec, EXT_HALO_GUIDELINES,
               paper=dict(topology=["dragonfly+", {
                   "nodes_per_leaf": 16, "leaves_per_group": 2}]),
               fast=dict(grid_shape=(4, 4), sizes=(256 * KiB, 1 * MiB),
                         iterations=3, warmup=1)),
    Experiment("ext_autotune",
               "Extension: closed-loop autotuning vs. offline optima",
               SPEEDUP, ext_autotune_spec, EXT_AUTOTUNE_GUIDELINES,
               paper=dict(iter_kwargs=PAPER.ptp_iter, laggard_iters=10,
                          table_iters=5),
               fast=dict(iter_kwargs=FAST.ptp_iter, laggard_iters=4,
                         table_iters=3)),
    # The scaling axis: (grid, threads) pairs — weak scaling over ranks,
    # strong scaling over threads at fixed per-face partition count.
    Experiment("ext_stencil", "Extension: partitioned neighbor-alltoall "
                              "stencil with per-edge plans",
               SPEEDUP, ext_stencil_spec, EXT_STENCIL_GUIDELINES,
               paper=dict(scale=(((2, 2), 8), ((4, 4), 8), ((4, 4), 16),
                                 ((2, 2, 2), 8)),
                          scale_iter={"iterations": 10, "warmup": 3}),
               fast=dict(scale=(((2, 2), 4),),
                         scale_iter={"iterations": 4, "warmup": 1})),
    Experiment("ext_model_vs_sim",
               "Extension: model-vs-simulator validation",
               Metric("winner agreement"), ext_model_vs_sim_spec,
               EXT_MODEL_VS_SIM_GUIDELINES,
               fast=dict(sizes=(16 * KiB, 16 * MiB), iterations=8,
                         warmup=2)),
    Experiment("ext_fleet", "Extension: shared-fabric fleet — contention "
                            "ranking, tenancy, live re-tuning",
               SPEEDUP, ext_fleet_spec, EXT_FLEET_GUIDELINES,
               lower_is_better=("slowdown, shared mix",
                                "slowdown, mix + neighbor",
                                "re-convergence rounds"),
               paper=dict(rank_iter={"iterations": 10, "warmup": 3}),
               fast=dict(rank_iter={"iterations": 6, "warmup": 2})),
    Experiment("ext_serve", "Extension: tuning-as-a-service — sharded "
                            "store, cache, concurrent writers",
               Metric("warm-cache hit rate"), ext_serve_spec,
               EXT_SERVE_GUIDELINES,
               lower_is_better=("p50 lookup latency (us)",
                                "p99 lookup latency (us)"),
               fast=dict(n_clients=400, n_requests=4000, stress_writers=3,
                         stress_puts=10, cas_puts=8)),
    Experiment("ext_chaos", "Extension: chaos campaign — invariants under "
                            "randomized faults",
               Metric("share of runs upholding every invariant"),
               ext_chaos_spec, EXT_CHAOS_GUIDELINES,
               paper=dict(workloads=CHAOS_WORKLOADS, runs=48, seed=7,
                          ladder=True),
               fast=dict(workloads=CHAOS_WORKLOADS, runs=12, seed=1,
                         ladder=True)),
)}
