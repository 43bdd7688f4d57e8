"""``perfbench compare A.json B.json``: the comparison rule, fixed before
looking.

For every workload x end-to-end metric: both reported values with the
medians of reps beside them, the ratio B/A (base: A), and a
verdict against the metric's own bound from ``BENCHMARK.json``:

* ``ok`` — B's value is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound, and the min-max ranges
  of the two files overlap by no more than the bound;
* ``unresolved`` — it is worse by more than the bound but the ranges overlap
  by more than the bound, so run-to-run spread could explain it.

Simulated results (``sim_digest``) and the exact per-layer counts are
compared for identity, and a calibration-kernel difference above 5 % warns
that the two files were not measured on the same machine state (reported
times are scaled by it, which evens out most but not all of that).
"""

from __future__ import annotations

import json

from perfbench import LAYERS, load_spec

#: Per-layer metrics that repeat exactly for one seed on one commit.
EXACT_LAYER_METRICS = ("trace.calls_total", "sim.events", "sim.callbacks",
                       "sim.virtual_s", "ib.wrs_posted", "bench.points",
                       "serve.cache_hit_ratio", "serve.commits")


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """(verdict, share by which B's value is worse than A's)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    if worse_by <= bound:
        return "ok", worse_by
    overlap = min(a["max"], b["max"]) - max(a["min"], b["min"])
    if overlap / a["value"] > bound:
        return "unresolved", worse_by
    return "regressed", worse_by


def compare_files(path_a: str, path_b: str, strict: bool = False) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    spec = load_spec()
    bad = 0
    worst = None
    print(f"A = {path_a}\nB = {path_b}\nratios are B/A (base: A)\n")
    print(f"{'workload':16s} {'metric':12s} {'A (median)':>22s}"
          f" {'B (median)':>22s} {'B/A':>7s} {'worse by':>9s} {'bound':>6s}"
          "  verdict")
    for name, rec_a in a["workloads"].items():
        rec_b = b["workloads"].get(name)
        if rec_b is None or not rec_a["e2e"] or not rec_b["e2e"]:
            print(f"{name:16s} missing from one file")
            bad += 1
            continue
        for metric in spec["end_to_end"]:
            sa, sb = rec_a["e2e"][metric["name"]], rec_b["e2e"][metric["name"]]
            result, worse_by = verdict(sa, sb, metric["better"], metric["bound"])
            print(f"{name:16s} {metric['name']:12s}"
                  f" {sa['value']:10.5g} ({sa['median']:9.5g})"
                  f" {sb['value']:10.5g} ({sb['median']:9.5g})"
                  f" {sb['value'] / sa['value']:7.3f}"
                  f" {worse_by:+9.1%} {metric['bound']:6.0%}  {result}")
            if result == "regressed" or (strict and result == "unresolved"):
                bad += 1
            score = worse_by / metric["bound"]
            if worst is None or score > worst[0]:
                worst = (score, name, metric["name"], worse_by, metric["bound"])
        for label, rec in (("A", rec_a), ("B", rec_b)):
            if rec["failed"]:
                print(f"{name:16s} {label}: {rec['failed']} of "
                      f"{rec['attempted']} operations failed")
                bad += 1
        same = rec_a["sim_digest"] == rec_b["sim_digest"]
        print(f"{name:16s} simulated statistics identical: "
              f"{'yes' if same else 'no'}")
        differing = []
        if rec_a["layers"] and rec_b["layers"]:
            calls = [f"{layer}.calls" for layer in LAYERS]
            differing = [m for m in (*EXACT_LAYER_METRICS, *calls)
                         if rec_a["layers"][m] != rec_b["layers"][m]]
            print(f"{name:16s} exact counts identical: "
                  f"{'yes' if not differing else 'no: ' + ', '.join(differing)}")
        if strict and (not same or differing):
            bad += 1
    if worst:
        print(f"\nworst pairing: {worst[1]} x {worst[2]}: B worse by "
              f"{worst[3]:+.1%} of A, bound {worst[4]:.0%}")
    calib_a, calib_b = a["host"]["calib_s"], b["host"]["calib_s"]
    if calib_a and calib_b:
        drift = calib_b["median"] / calib_a["median"] - 1
        print(f"host.calib_s (median over children): A "
              f"{calib_a['median']:.4f} s, B {calib_b['median']:.4f} s "
              f"({drift:+.1%} of A)")
        if abs(drift) > 0.05:
            print("WARNING: the calibration kernel differs by more than 5 %: "
                  "the machine, not the program, may explain differences")
    return 1 if bad else 0
