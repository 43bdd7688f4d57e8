"""Fig. 14: Sweep3D communication speedup at 1024 cores.

8x8 ranks x 16 threads (one rank per node), three (compute, noise)
points giving laggard delays of 10 us, 40 us and 400 us — the paper's
three subfigures.  Reported: communication-time speedup of the PLogGP
and timer designs over ``part_persist`` (critical-path compute
subtracted).  Expected shape: clear medium-message speedups with small
noise (paper: up to 1.60x/1.63x at 1 MB in 14a/14b), the timer design
matching or beating static PLogGP, speedups near 1.0 once the laggard
delay dominates (paper 14c: 1.04x) and for very large messages.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import script_main
from repro.units import KiB


def test_fig14_sweep3d(benchmark):
    # Reduced grid for the benchmark suite; run the module directly for
    # the paper's full 8x8.
    series = benchmark.pedantic(
        lambda: run_fast("fig14")["series"], rounds=1, iterations=1)
    mid = 256 * KiB
    # Medium-message speedup with 10us noise.
    assert series["14a: 1ms+1% (10us) ploggp"][mid] > 1.25
    # With 40us noise, the timer holds up where static grouping stalls.
    assert (series["14b: 1ms+4% (40us) timer"][mid]
            > series["14b: 1ms+4% (40us) ploggp"][mid])
    benchmark.extra_info["speedup_14a_ploggp_256KiB"] = round(
        series["14a: 1ms+1% (10us) ploggp"][mid], 2)
    benchmark.extra_info["speedup_14b_timer_256KiB"] = round(
        series["14b: 1ms+4% (40us) timer"][mid], 2)


if __name__ == "__main__":
    sys.exit(script_main("fig14", __doc__))
