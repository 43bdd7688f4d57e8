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

:func:`check` validates a point against its row's ``needs`` and
``params``, each read by its one parser in :data:`PARAMS`, so
``n_user`` means the same in every kind (``repro-bench point``).
"""

from __future__ import annotations

import importlib
import json
import math
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.exp.modules import (
    MODULE_NAMES,
    TOPOLOGIES,
    build_config,
    build_module,
    build_topology,
    check_module,
)
from repro.exp.spec import Scenario
from repro.units import GiB, KiB, MiB, is_power_of_two, ms, ns, us


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
    #: :func:`check` requires the count to split the bytes evenly.
    plan: Optional[tuple[str, str, str]] = None
    #: The params a point must give (the plan's always among them).
    needs: tuple[str, ...] = ()
    #: The params a point may add; the runner's default applies without.
    params: tuple[str, ...] = ()


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


def _netgauge(**args) -> dict:
    from repro.model.netgauge import measure_loggp

    table = measure_loggp(**args)
    loggp = {}
    for size in table.sizes:
        params = table.lookup(size)
        loggp[str(size)] = {**vars(params), "bandwidth": params.bandwidth}
    return {"loggp": loggp}


def _tuning_table(n_user: int, total_bytes: int, **args) -> dict:
    from repro.core.tuning_table import build_tuning_table

    table = build_tuning_table([n_user], [total_bytes], **args)
    n_transport, n_qps = table.lookup(n_user, total_bytes)
    return {"n_transport": n_transport, "n_qps": n_qps}


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
_SWEEP = ("module", "n_threads", "total_bytes")
_HALO = ("module", "n_threads", "face_bytes")
_AUTOTUNE = ("autotune", "n_user", "total_bytes")
_SEEDED = ("config", "seed")
_ROUNDS = ("iterations", "warmup") + _SEEDED
_NOISY = ("compute", "noise_fraction") + _ROUNDS

#: Every scenario kind (``Scenario.kind``) and how it runs.
KINDS: dict[str, Kind] = {
    "overhead": Kind(("repro.bench.overhead", "run_overhead"),
                     ("mean_time",), plan=_PAIR, needs=_PAIR,
                     params=_ROUNDS),
    "perceived": Kind(_perceived, plan=_PAIR, needs=_PAIR,
                      params=_NOISY + ("loss",)),
    "sweep": Kind(("repro.bench.sweep", "run_sweep"),
                  ("mean_time", "mean_comm_time", "critical_path_compute"),
                  plan=_SWEEP, needs=_SWEEP, params=("grid",) + _NOISY),
    "halo": Kind(("repro.bench.halo", "run_halo"),
                 ("mean_time", "mean_comm_time"), plan=_HALO, needs=_HALO,
                 params=("grid", "topology") + _NOISY),
    "stencil": Kind(_stencil, plan=("module", "n_partitions", "face_bytes"),
                    needs=("n_threads", "n_partitions", "face_bytes"),
                    params=("module", "per_edge", "grid", "topology")
                    + _NOISY),
    "arrival_profile": Kind(
        _arrival_profile, needs=("n_user", "total_bytes", "noise_fraction"),
        params=("compute",) + _ROUNDS),
    "min_delta": Kind(_min_delta, plan=_PAIR,
                      needs=_PAIR + ("noise_fraction",),
                      params=("compute",) + _ROUNDS),
    "autotune": Kind(_autotune, plan=_AUTOTUNE, needs=_AUTOTUNE,
                     params=_NOISY),
    "fleet": Kind(_fleet, takes=_SEEDED, needs=("jobs",),
                  params=("placement", "topology") + _SEEDED),
    "fleet_rank": Kind(("repro.fleet", "run_contended_pair"), takes=_SEEDED,
                       params=("module", "level", "n_partitions",
                               "partition_size", "compute") + _ROUNDS),
    "fleet_autotune": Kind(_fleet_autotune, takes=_SEEDED,
                           needs=("autotune",),
                           params=("quiet_rounds", "congested_rounds",
                                   "tail_rounds", "n_partitions",
                                   "partition_size", "compute") + _SEEDED),
    "model_curve": Kind(_model_curve, takes=(), needs=("sizes", "n", "delay")),
    "table1": Kind(_table1, takes=()),
    "netgauge": Kind(_netgauge, takes=("config",),
                     params=("sizes", "rounds", "burst", "config")),
    "tuning_table": Kind(_tuning_table, takes=("config",),
                         needs=("n_user", "total_bytes"),
                         params=("iterations", "warmup", "config")),
    "serve_bench": Kind(("repro.serve.bench", "run_serve_bench"),
                        takes=("seed",),
                        params=("n_clients", "n_requests", "n_keys",
                                "zipf_s", "p_commit", "n_shards",
                                "cache_capacity", "max_entries_per_shard",
                                "seed")),
    "serve_stress": Kind(_serve_stress, takes=(),
                         params=("n_writers", "n_puts", "mode", "n_shards")),
    "serve_fleet": Kind(_serve_fleet, takes=_SEEDED,
                        params=("autotune", "n_tenants", "n_partitions",
                                "partition_size", "iterations", "n_shards")
                        + _SEEDED),
    "chaos": Kind(("repro.chaos", "run_chaos"), takes=("seed",),
                  needs=("workload", "fault", "seed", "index"),
                  params=("horizon", "max_duration", "module", "ladder")),
}


# ------------------------------------------------------------ checking

_SIZE_UNITS = {"GiB": GiB, "MiB": MiB, "KiB": KiB, "B": 1}
_TIME_UNITS = {"ns": ns(1), "us": us(1), "ms": ms(1), "s": 1.0}


def _number(text: str, units: dict) -> float:
    """``text`` as a number scaled by its unit suffix, if it has one."""
    text = text.strip()
    for suffix, scale in units.items():
        if text.endswith(suffix):
            return float(text[: -len(suffix)]) * scale
    return float(text)


def parse_size(value) -> int:
    """A byte count >= 1: an int, or text such as ``64KiB`` or ``4096``."""
    if isinstance(value, str):
        try:
            value = int(_number(value, _SIZE_UNITS))
        except (ValueError, OverflowError):
            raise ValueError(f"bad size {value.strip()!r}") from None
    if type(value) is not int:
        raise ValueError(f"bad size {value!r}")
    if value < 1:
        raise ValueError(f"size must be >= 1B, got {value!r}")
    return value


def parse_sizes(value) -> list[int]:
    """Sizes: a list, or comma-separated text such as ``4KiB,1MiB``."""
    parts = ([part for part in value.split(",") if part.strip()]
             if isinstance(value, str) else value)
    if not isinstance(parts, list) or not parts:
        raise ValueError(f"no sizes in {value!r}")
    return [parse_size(part) for part in parts]


def _faces(value):
    """One face size, or one per axis (a list, or comma-separated)."""
    sizes = parse_sizes(value if isinstance(value, (str, list)) else [value])
    return sizes if isinstance(value, list) or len(sizes) > 1 else sizes[0]


def non_negative_float(value) -> float:
    """A finite number >= 0 (text is read as a float)."""
    try:
        number = float(value)
    except (TypeError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not (math.isfinite(number) and number >= 0):
        raise ValueError(f"must be finite and >= 0, got {value}")
    return number


def parse_seconds(value) -> float:
    """A duration in seconds: a number, or text such as ``4ms``."""
    if isinstance(value, str):
        value = _number(value, _TIME_UNITS)
    return non_negative_float(value)


def positive_seconds(value) -> float:
    """A duration > 0 (:func:`parse_seconds`)."""
    seconds = parse_seconds(value)
    if seconds == 0:
        raise ValueError(f"must be > 0, got {value}")
    return seconds


def parse_grid(value) -> list[int]:
    """A 2-D or 3-D rank grid: a list, or text such as ``4x4``."""
    dims = value
    if isinstance(value, str):
        try:
            dims = [int(part) for part in value.split("x") if part]
        except ValueError:
            dims = []
    if not (isinstance(dims, list) and len(dims) in (2, 3)
            and all(type(d) is int and d >= 1 for d in dims)):
        raise ValueError(f"bad grid {str(value)!r} (want 2-D or 3-D, "
                         f"e.g. 4x4 or 2x2x2)")
    return dims


def _shape(ok: Callable[[Any], bool], want: str) -> Callable[[Any], Any]:
    """A parser that keeps a value as it is when ``ok`` holds for it."""
    def parse(value):
        if not ok(value):
            raise ValueError(f"want {want}, got {value!r}")
        return value
    return parse


def _descriptor(names: Sequence[str]) -> Callable[[Any], list]:
    """A ``[name, params]`` descriptor (``repro.exp.modules``)."""
    return _shape(lambda v: (
        isinstance(v, list) and 1 <= len(v) <= 2 and isinstance(v[0], str)
        and v[0] in names and (len(v) == 1 or isinstance(v[1], dict))),
        f"[name, {{params}}] with a name from {', '.join(names)}")


def _built(build: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """A descriptor that is valid when ``build`` accepts it."""
    def parse(value):
        try:
            build(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(str(exc)) from None
        return value
    return parse


def _chaos_name(table: str) -> Callable[[Any], str]:
    """A name from a :mod:`repro.chaos` table (read on first use)."""
    def parse(value):
        import repro.chaos

        names = getattr(repro.chaos, table)
        if not (isinstance(value, str) and value in names):
            raise ValueError(f"want one of {', '.join(sorted(names))}, "
                             f"got {value!r}")
        return value
    return parse


def _jobs(jobs: list) -> None:
    from repro.fleet import JobSpec

    if not jobs:
        raise ValueError("want at least one job")
    for job in jobs:
        JobSpec.from_dict(job)


#: Every param any kind takes, and the one parser that reads it.
PARAMS: dict[str, Callable[[Any], Any]] = {
    **dict.fromkeys(
        ("n_user", "n_threads", "n_partitions", "n", "iterations",
         "rounds", "burst", "quiet_rounds", "congested_rounds",
         "tail_rounds", "n_clients", "n_requests", "n_keys", "n_shards",
         "cache_capacity", "n_writers", "n_puts", "n_tenants"),
        _shape(lambda v: type(v) is int and v >= 1, "an integer >= 1")),
    **dict.fromkeys(("warmup", "level", "seed", "max_entries_per_shard",
                     "index"),
                    _shape(lambda v: type(v) is int and v >= 0,
                           "an integer >= 0")),
    **dict.fromkeys(("total_bytes", "partition_size"), parse_size),
    "face_bytes": _faces,
    "sizes": parse_sizes,
    "grid": parse_grid,
    **dict.fromkeys(("compute", "delay", "max_duration"), parse_seconds),
    "horizon": positive_seconds,
    **dict.fromkeys(("noise_fraction", "loss", "zipf_s", "p_commit"),
                    non_negative_float),
    "module": lambda v: check_module(_descriptor(MODULE_NAMES)(v)),
    **dict.fromkeys(("autotune", "per_edge"), lambda v: check_module(
        ["autotune", _shape(lambda x: isinstance(x, dict),
                            "a JSON object")(v)])[1]),
    "topology": _descriptor(tuple(TOPOLOGIES)),
    "config": _built(build_config),
    "jobs": _built(_jobs),
    "placement": _shape(("packed", "spread", "random").__contains__,
                        "packed, spread or random"),
    "mode": _shape(("cas", "confident").__contains__, "cas or confident"),
    "workload": _chaos_name("WORKLOADS"),
    "fault": _chaos_name("KINDS"),
    "ladder": _shape(lambda v: type(v) is bool, "true or false"),
}


#: Where one kind takes less than a shared param's parser allows.
NARROW = {("sweep", "grid"): _shape(lambda v: len(v) == 2, "a 2-D grid"),
          ("tuning_table", "n_user"): _shape(is_power_of_two,
                                              "a power of two")}


def _usage(kind: str, problem: str) -> ConfigError:
    """A usage error that names what ``kind`` accepts."""
    row = KINDS.get(kind)
    if row is None:
        return ConfigError(f"unknown kind {kind!r} "
                           f"(have: {', '.join(sorted(KINDS))})")
    return ConfigError(
        f"{kind}: {problem} ({kind} needs "
        f"{', '.join(row.needs) or 'nothing'}; takes "
        f"{', '.join(row.params) or 'nothing more'})")


def check(kind: str, params: dict) -> Scenario:
    """The scenario ``params`` name, each value parsed; a ConfigError
    (naming what the kind accepts) if anything is missing or wrong."""
    from repro.mem.buffer import partition_size_of

    row = KINDS.get(kind)
    if row is None:
        raise _usage(kind, "")
    missing = [name for name in row.needs if name not in params]
    unknown = sorted(set(params) - set(row.needs) - set(row.params))
    if missing or unknown:
        raise _usage(kind, f"missing {', '.join(missing)}" if missing
                     else f"no param {', '.join(unknown)}")
    values = {}
    for name, value in params.items():
        try:
            values[name] = PARAMS[name](value)
            if (kind, name) in NARROW:
                values[name] = NARROW[kind, name](values[name])
        except ValueError as exc:
            raise _usage(kind, f"{name}: {exc}") from None
    if row.plan is not None:
        _, count, nbytes = row.plan
        n, threads = values[count], values.get("n_threads", values[count])
        if n % threads:
            raise _usage(kind, f"{n} partitions not divisible by "
                               f"{threads} threads")
        sizes = values[nbytes]
        for size in sizes if isinstance(sizes, list) else [sizes]:
            try:
                partition_size_of(size, n)
            except ValueError as exc:
                raise _usage(kind, str(exc)) from None
    return Scenario.make(kind, **values)


def point_scenario(kind: str, items: Sequence[str]) -> Scenario:
    """The scenario of ``repro-bench point <kind> key=value...``: each
    value is JSON where it parses, else text for its param's parser."""
    params: dict = {}
    for item in items:
        name, sep, text = item.partition("=")
        if not sep or name in params:
            raise _usage(kind, f"want distinct key=value pairs, got {item!r}")
        try:
            params[name] = json.loads(text)
        except ValueError:
            params[name] = text
    return check(kind, params)
