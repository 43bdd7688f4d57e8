"""One fresh interpreter, one pass: set up, run the timed pass, print one
JSON line.  Launched only by :mod:`perfbench.runner`.

Modes: ``plain`` (the untraced rep every end-to-end metric comes from),
``cprofile`` (pass A: cProfile bucketed by layer), ``kernel`` (pass B: a
``KernelProfile`` on every ``Environment``, WRs counted at ``post_send``)
and ``probes`` (the direct-drive probes; no workload pass).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from perfbench import ROOT, workloads
from perfbench.trace import KernelTrace, LayerProfile, Spans


def _refuse_result_cache() -> None:
    """Fail loudly if anything in this child opens ``results/.cache``.

    A pass that was answered from the sweep-point cache would time a file
    read instead of the program."""
    from repro.exp.cache import ResultCache

    forbidden = (ROOT / "results" / ".cache").resolve()
    original = ResultCache.__init__

    def guarded(self, directory):
        if Path(directory).resolve().is_relative_to(forbidden):
            raise RuntimeError(
                f"perfbench refuses to read the result cache {forbidden}")
        original(self, directory)

    ResultCache.__init__ = guarded


def _sim_pass(points, seed, spans, kernel) -> dict:
    records = []
    for point in points:
        if kernel is not None:
            kernel.point_kind = point["kind"]
        with spans.span(f"bench.point:{point['id']}"):
            records.append(workloads.run_point(point, seed))
    digest = hashlib.sha256(json.dumps(
        [[r["id"], r["hex"]] for r in records]).encode()).hexdigest()
    return {"points": records, "digest": digest,
            "failed": sum(r["error"] is not None for r in records)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "cprofile", "kernel", "probes"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--disk-tmp", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args(argv)

    spans = Spans()
    out = {"workload": args.workload, "mode": args.mode}

    with spans.span("setup"):
        workloads.import_runners(args.workload)
        _refuse_result_cache()
        points = workloads.points(args.workload, args.seed, args.smoke)
        if args.inject_failure:
            points.append(workloads.INJECTED_FAILURE)
        load = None
        if args.mode != "probes" and args.workload == "serve_mixed":
            from perfbench.serveload import ServeLoad

            load = ServeLoad(points[0]["args"], args.seed, args.tmp)
            load.setup()
    pass_start = time.monotonic()
    # Child start to start of the timed pass.
    out["setup_s"] = pass_start - args.spawned_at

    if args.mode == "probes":
        from perfbench import probes

        out["probes"] = probes.run_all(Path(args.tmp), Path(args.disk_tmp),
                                       args.seed, args.smoke, spans)
    else:
        profile = LayerProfile() if args.mode == "cprofile" else None
        kernel = KernelTrace() if args.mode == "kernel" else None
        with contextlib.ExitStack() as stack:
            stack.enter_context(spans.span("pass"))
            for hook in (profile, kernel):
                if hook is not None:
                    stack.enter_context(hook)
            start = time.perf_counter()
            result = (load.run(spans) if load is not None
                      else _sim_pass(points, args.seed, spans, kernel))
            out["wall_s"] = time.perf_counter() - start
        # serve_mixed brings its own wall_s: the closed loop's clock,
        # without the per-round bookkeeping between rounds.
        out.update(result)
        if profile is not None:
            out["layers"] = profile.buckets()
        if kernel is not None:
            out["kernel"] = kernel.totals()

    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    out["spans"] = spans.rows
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
