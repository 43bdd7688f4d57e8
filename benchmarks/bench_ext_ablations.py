"""Extension ablations beyond the paper's figures.

Two design questions the paper raises but does not quantify:

1. **Scatter/gather flush** (Section IV-D): flushing non-contiguous
   arrivals as one multi-SGE WR into receive-side staging, vs. the
   adopted one-WR-per-run flush.  The paper rejected SG on staging and
   layout-information grounds; this ablation forces hole-y flushes
   (δ below the natural arrival spread) and measures both designs.
2. **Online δ auto-tuning** (Section IV-D future work): in a sweep,
   an oversized δ makes the first arriver block its *other* requests
   (the artefact the paper warns about); the adaptive tuner recovers
   from a bad seed where a fixed δ cannot.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import script_main
from repro.units import MiB


def run_sg_ablation():
    """{(design, size): (perceived bw, WRs posted per round)}."""
    payload = run_fast("ext_ablations")["sg"]
    return {(name, size): (bw, wrs)
            for name, size, bw, wrs in payload["rows"]}


def run_adaptive_ablation():
    """Sweep comm-time speedup over part_persist for three δ policies.

    Each rank sends to two neighbours, so a first arriver sleeping an
    oversized δ in one request delays its pready on the other — the
    multi-request hazard of Section V-C2.
    """
    return run_fast("ext_ablations")["adaptive"]["speedups"]


def test_ext_sg_ablation(benchmark):
    out = benchmark.pedantic(run_sg_ablation, rounds=1, iterations=1)
    size = 8 * MiB
    bw_runs, wrs_runs = out[("runs", size)]
    bw_sg, wrs_sg = out[("sg", size)]
    # SG condenses hole-y flushes into fewer WRs...
    assert wrs_sg <= wrs_runs
    # ...but its staging copy-out must not win on perceived bandwidth
    # (the paper's grounds for rejecting it).
    assert bw_runs >= bw_sg * 0.9
    benchmark.extra_info["wrs_per_round_runs"] = round(wrs_runs, 1)
    benchmark.extra_info["wrs_per_round_sg"] = round(wrs_sg, 1)


def test_ext_adaptive_ablation(benchmark):
    speedups = benchmark.pedantic(run_adaptive_ablation,
                                  rounds=1, iterations=1)
    # The oversized fixed delta hurts; the adaptive tuner recovers most
    # of the well-tuned performance from the same bad seed.
    assert speedups["fixed good (8us)"] > speedups["fixed bad (200us)"]
    assert (speedups["adaptive (seed 200us)"]
            > speedups["fixed bad (200us)"])
    benchmark.extra_info.update(
        {k: round(v, 3) for k, v in speedups.items()})


if __name__ == "__main__":
    sys.exit(script_main("ext_ablations", __doc__))
