"""The parent: launch one fresh child per rep, strictly one at a time, and
fold what they print into end-to-end and per-layer metrics.

Untraced reps are interleaved round-robin across the selected workloads, so
machine drift lands on all of them equally; every reported time is the
median of reps, each rep scaled by the calibration readings around it (see
:func:`end_to_end`), with the min, max and sample count beside it.  The traced
run (one cProfile pass, one kernel-profile pass, one probes child) happens
after the untraced reps and feeds only the per-layer metrics.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perfbench import LAYERS, OUT, ROOT, SRC, load_spec, workloads

#: A child still running after this many seconds is killed; its operations
#: count as failed.
CHILD_TIMEOUT_S = 60
#: Untraced reps per workload, however short ``--seconds`` is.
MIN_REPS = 3
#: What :class:`Reference` reads on the quiet 2-core box this benchmark was
#: sized on.  Reported times are host seconds scaled to a machine on which
#: it reads exactly this.
CALIB_NOMINAL_S = 0.037


class _Cell:
    __slots__ = ("due", "hits")

    def __init__(self, due: float):
        self.due = due
        self.hits = 0


class Reference:
    """The calibration kernel: a fixed pure-Python event loop that shares no
    code, process or heap with the program.  The parent reads it between
    children, while nothing else of the benchmark runs.

    One reading pops and pushes 30 000 ``(time, seq, object)`` heap entries
    over a pool of 200 000 small objects (25 MB, far more than a core's
    private cache), which is what the simulator does all day, so a neighbour
    that slows the program slows it too.  A tight arithmetic spin does not:
    over twelve minutes in which this box drifted from 1.00 to 1.45 s on one
    sweep point, the spin moved 8 % and this kernel 42 %.
    """

    EVENTS = 30_000
    POOL = 200_000

    def __init__(self):
        self._pool = [_Cell(float(i)) for i in range(self.POOL)]

    def _once(self) -> float:
        start = time.perf_counter()
        pool, size = self._pool, self.POOL
        heap = [(cell.due, i, cell) for i, cell in enumerate(pool[::64])]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        recent = {}
        for seq in range(size, size + self.EVENTS):
            due, _, cell = pop(heap)
            cell.hits += 1
            nxt = pool[seq * 7919 % size]
            nxt.due = due + 1.5
            recent[seq & 1023] = nxt
            push(heap, (nxt.due, seq, nxt))
        return time.perf_counter() - start

    def read(self) -> float:
        """Seconds for one pass of the kernel: the median of three."""
        return statistics.median(self._once() for _ in range(3))


def ram_dir() -> Path:
    """Where temp stores live: RAM-backed ``/dev/shm``, else the checkout.

    serve_mixed on a virtio disk swings 6.6-11.5 k ops/s run to run against
    22-25 k on tmpfs, which no bound up to 25 % can gate; see README.md.
    """
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK | os.X_OK):
        return shm
    return disk_dir()


def disk_dir() -> Path:
    path = OUT / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


def spawn(workload: str, mode: str, seed: int, smoke: bool = False,
          inject_failure: bool = False) -> dict:
    """Run one child to completion; never more than one is alive.

    Returns what the child printed plus ``spawned_at``/``ended_at``, or
    ``{"error": ...}`` if it crashed or outlived :data:`CHILD_TIMEOUT_S`.
    The temp dirs belong to the parent, so they are removed even when the
    child is killed.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=f"{SRC}{os.pathsep}{ROOT}")
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=ram_dir()) as tmp, \
            tempfile.TemporaryDirectory(prefix="perfbench-", dir=disk_dir()) as disk_tmp:
        cmd = [sys.executable, "-m", "perfbench.child",
               "--workload", workload, "--mode", mode, "--seed", str(seed),
               "--tmp", tmp, "--disk-tmp", disk_tmp]
        if smoke:
            cmd.append("--smoke")
        if inject_failure:
            cmd.append("--inject-failure")
        spawned_at = time.monotonic()
        cmd += ["--spawned-at", repr(spawned_at)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"workload": workload, "mode": mode,
                    "error": f"killed after {CHILD_TIMEOUT_S} s"}
        ended_at = time.monotonic()
    if proc.returncode != 0:
        return {"workload": workload, "mode": mode,
                "error": f"exit {proc.returncode}: {proc.stderr[-1500:]}"}
    child = json.loads(proc.stdout.splitlines()[-1])
    child.update(spawned_at=spawned_at, ended_at=ended_at)
    return child


def summary(values: list, value: float) -> dict:
    """The reported ``value`` with the median, min, max and n of the reps
    beside it."""
    return {"value": value, "median": statistics.median(values),
            "min": min(values), "max": max(values), "n": len(values),
            "raw": list(values)}


def account(children: list, ops: int) -> tuple[int, int, list]:
    """(attempted, failed, errors) over the pass children of one workload.

    A dead child fails all its operations.  Simulated results must be
    bit-identical (float-hex) in every pass of one set, traced or not: a
    point that differs from the first pass's value counts as failed.
    """
    failed, errors, first = 0, [], None
    for child in children:
        if "error" in child:
            failed += ops
            errors.append(f"{child['mode']}: {child['error']}")
            continue
        failed += child["failed"]
        errors += [f"{p['id']}: {p['error']}" for p in child.get("points", ())
                   if p["error"]]
        if first is None:
            first = child
        elif child["digest"] != first["digest"]:
            then = {p["id"]: p["hex"] for p in first.get("points", ())}
            differing = [p["id"] for p in child.get("points", ())
                         if p["hex"] != then.get(p["id"])] or ["digest"]
            failed += len(differing)
            errors.append(f"{child['mode']}: differs from first pass: "
                          f"{', '.join(differing)}")
    return ops * len(children), failed, errors


def end_to_end(reps: list, ops: int) -> dict:
    """The gated metrics, from the untraced reps that completed.

    Every rep's times are first scaled by the calibration readings the
    parent took just before and just after that rep, so a machine that is
    slow for a while (this box is, by 15-40 %, for minutes at a time, and
    now and then fast by 10 %) scales out; the reported value is then the
    median of reps, which a burst inside one rep cannot move.
    """
    scales = [CALIB_NOMINAL_S / r["calib_s"] for r in reps]
    walls = [r["wall_s"] * k for r, k in zip(reps, scales)]
    setups = [r["setup_s"] * k for r, k in zip(reps, scales)]
    rss = [r["peak_rss_mb"] for r in reps]
    wall_s = statistics.median(walls)
    return {"wall_s": summary(walls, wall_s),
            "setup_s": summary(setups, statistics.median(setups)),
            "peak_rss_mb": summary(rss, min(rss)),
            "ops_per_s": summary([ops / w for w in walls], ops / wall_s)}


def _median_of(reps: list, key: str) -> float:
    return statistics.median(r[key] for r in reps)


def _kind_seconds(rep: dict, kind: str) -> float:
    return sum(p["host_s"] for p in rep["points"] if p["kind"] == kind)


def _point_value(rep: dict, name: str) -> float:
    values = [float.fromhex(p["hex"][name]) for p in rep["points"]
              if name in p["hex"]]
    return max(values, default=0.0)


def _speedup_geomean(rep: dict) -> float:
    """Geomean simulated speedup of native points over their part_persist
    baseline: the paper's headline number, reported, never gated."""
    time_of = {p["id"]: p["time_s"] for p in rep["points"]}
    ratios = [time_of[p["baseline"]] / p["time_s"] for p in rep["points"]
              if p["baseline"] in time_of and p["time_s"]
              and time_of[p["baseline"]]]
    if not ratios:
        return 0.0
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def per_layer(names: list, workload: str, reps: list, traced: dict,
              probes: dict, calib_s: float) -> dict:
    """Every per-layer metric for one workload; 0 where a layer or a probe
    has no part in it (``serve.*`` on a simulation, ``sim.*`` on serve)."""
    out = dict.fromkeys(names, 0.0)
    out.update(probes)
    out["host.calib_s"] = calib_s
    wall_s = _median_of(reps, "wall_s")

    profiled = traced.get("cprofile")
    if profiled and "layers" in profiled:
        for layer in LAYERS:
            out[f"{layer}.self_s"] = profiled["layers"][layer]["self_s"]
            out[f"{layer}.calls"] = profiled["layers"][layer]["calls"]
        out["trace.calls_total"] = sum(
            b["calls"] for b in profiled["layers"].values())
        out["trace.overhead_x"] = profiled["wall_s"] / wall_s

    if workload == "serve_mixed":
        for key in ("get_p50_us", "get_p99_us", "commit_p50_us",
                    "commit_p99_us", "get_hit_p50_us", "get_miss_p50_us",
                    "cache_hit_ratio", "commits", "conflicts",
                    "evicted_entries"):
            out[f"serve.{key}"] = _median_of(reps, key)
        # ext_serve models a cache hit at 2 µs (repro.serve.bench.CACHE_HIT_US).
        out["serve.modeled_get_p50_ratio"] = out["serve.get_p50_us"] / 2.0
        return out

    rep = reps[0]
    out["bench.points"] = len(rep["points"])
    out["bench.persist_s"] = statistics.median(
        _kind_seconds(r, "persist") for r in reps)
    out["bench.native_s"] = statistics.median(
        _kind_seconds(r, "native") for r in reps)
    for count in ("retransmits", "rnr_naks"):
        out[f"ib.{count}"] = sum(p["counts"].get(count, 0) for p in rep["points"])
    out["core.timer_flushes"] = sum(
        p["counts"].get("timer_flushes", 0) for p in rep["points"])
    out["core.model_speedup_geo"] = _speedup_geomean(rep)
    out["fleet.spine_utilization"] = _point_value(rep, "spine_utilization")
    out["fleet.makespan_s"] = _point_value(rep, "makespan_s")

    kernel = (traced.get("kernel") or {}).get("kernel")
    if kernel:
        out["sim.events"] = kernel["events"]
        out["sim.callbacks"] = kernel["callbacks"]
        out["sim.virtual_s"] = kernel["virtual_s"]
        out["sim.dispatch_s"] = kernel["dispatch_s"]
        out["sim.host_us_per_event"] = wall_s / kernel["events"] * 1e6
        out["sim.events_per_wall_s"] = kernel["events"] / wall_s
        out["ib.wrs_posted"] = sum(kernel["wrs"].values())
        native_wrs = kernel["wrs"].get("native", 0)
        if native_wrs:
            out["ib.host_us_per_wr"] = out["bench.native_s"] / native_wrs * 1e6
    return out


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              env=env, text=True, capture_output=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_json(path: Path, payload) -> None:
    """Atomically: a reader sees the old file or the whole new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _collect_spans(children: list) -> list:
    """One timeline: a root span per child, its own spans beneath it."""
    spans = []
    for child in children:
        if "error" in child:
            continue
        root = len(spans)
        spans.append({"id": root, "name": f"child:{child['mode']}",
                      "start": child["spawned_at"], "end": child["ended_at"],
                      "parent": None, "workload": child["workload"]})
        for name, start, end, parent in child["spans"]:
            spans.append({"id": len(spans), "name": name, "start": start,
                          "end": end, "workload": child["workload"],
                          "parent": root if parent is None else root + 1 + parent})
    return spans


class Session:
    """Launches children strictly one at a time and remembers all of them."""

    def __init__(self, seed: int, smoke: bool, inject_failure, log):
        self.seed, self.smoke = seed, smoke
        self.inject_failure, self.log = inject_failure, log
        self.children: list[dict] = []
        self.reference = Reference()
        self._calib_s = self.reference.read()

    def child(self, name: str, mode: str) -> tuple[dict, float]:
        """(what the child printed, parent-side seconds it took).

        ``calib_s`` is the mean of the calibration readings on either side
        of the child; each reading serves the child before and after it."""
        start = time.monotonic()
        before = self._calib_s
        result = spawn(name, mode, self.seed, self.smoke,
                       self.inject_failure == name)
        self._calib_s = self.reference.read()
        result["calib_s"] = (before + self._calib_s) / 2
        took = time.monotonic() - start
        self.children.append(result)
        self.log(f"  {name:16s} {mode:9s} {took:6.2f} s"
                 + (f"  ERROR {result['error']}" if "error" in result else ""))
        return result, took


def untraced_reps(session: Session, names: list, seconds: float,
                  min_reps: int) -> dict:
    """Round-robin: rep 1 of every workload, then rep 2, ...  A workload
    keeps going while it is short of ``min_reps`` or another rep still fits
    in ``seconds``."""
    reps = {n: [] for n in names}
    spent = dict.fromkeys(names, 0.0)
    pending = list(names)
    while pending:
        still = []
        for name in pending:
            result, took = session.child(name, "plain")
            reps[name].append(result)
            spent[name] += took
            if len(reps[name]) < min_reps or spent[name] + took <= seconds:
                still.append(name)
        pending = still
    return reps


def traced_run(session: Session, names: list) -> tuple[dict, dict]:
    """Pass A and pass B per workload, then the probes child."""
    traced = {}
    for name in names:
        traced[name] = {"cprofile": session.child(name, "cprofile")[0]}
        if name != "serve_mixed":   # no Environment to attach a profile to
            traced[name]["kernel"] = session.child(name, "kernel")[0]
    probe_child, _ = session.child(names[0], "probes")
    if "error" in probe_child:
        return traced, {"error": probe_child["error"]}
    return traced, probe_child["probes"]


def run(names: list, seed: int, seconds: float, trace, smoke: bool = False,
        inject_failure=None, log=print) -> dict:
    """Measure ``names``; ``trace`` is 0 (untraced reps only), 1 (traced run
    only, after one untraced reference rep) or None (both)."""
    layer_names = [m["name"] for m in load_spec()["per_layer"]]
    session = Session(seed, smoke, inject_failure, log)
    if smoke or trace == 1:
        reps = untraced_reps(session, names, 0.0, 1)
    else:
        reps = untraced_reps(session, names, seconds, MIN_REPS)
    traced, probes = traced_run(session, names) if trace != 0 else ({}, {})

    calibs = [c["calib_s"] for c in session.children]
    result = {
        "schema": "perfbench/v1",
        "meta": {"git_sha": _git_sha(), "python": platform.python_version(),
                 "nproc": os.cpu_count(), "seed": seed, "seconds": seconds,
                 "smoke": smoke, "trace": trace,
                 "store_dir": str(ram_dir()),
                 "started": time.strftime("%Y-%m-%dT%H:%M:%S")},
        "host": {"calib_s": summary(calibs, statistics.median(calibs))},
        "probes": probes,
        "workloads": {},
    }
    for name in names:
        ops = workloads.n_ops(name, seed, smoke) + (name == inject_failure)
        passes = reps[name] + list(traced.get(name, {}).values())
        attempted, failed, errors = account(passes, ops)
        good = [r for r in reps[name] if "error" not in r]
        record = {"ops": ops, "reps": len(reps[name]),
                  "attempted": attempted, "failed": failed,
                  "failed_share": failed / attempted, "errors": errors,
                  "sim_digest": good[0]["digest"] if good else None,
                  "e2e": None, "layers": None, "points": []}
        if good:
            record["e2e"] = end_to_end(good, ops)
            record["raw"] = [{k: r[k] for k in ("wall_s", "setup_s", "calib_s")}
                             for r in good]
            for i, first in enumerate(good[0].get("points", ())):
                record["points"].append({
                    "id": first["id"], "kind": first["kind"],
                    "time_s": first["time_s"],
                    "host_s": statistics.median(
                        r["points"][i]["host_s"] for r in good)})
            if trace != 0 and "error" not in probes:
                record["layers"] = per_layer(
                    layer_names, name, good, traced[name], probes,
                    statistics.median(calibs))
        result["workloads"][name] = record
    if trace != 0:
        result["spans"] = _collect_spans(session.children)
    return result
