"""Fig. 10: profiled arrival pattern, 8 MiB, 100 ms compute, 4 % noise.

Profiles the perceived-bandwidth benchmark's ``MPI_Pready`` times and
overlays the estimated per-partition wire time, as the paper's PMPI
profiler does.  Expected shape: the n-1 early partitions all finish
transferring well inside the laggard's ~4 ms delay — the whole
early-bird window is available, and a delta just above the non-laggard
arrival spread suffices.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import script_main
from repro.exp.experiments import profile_from_metrics
from repro.profiler import early_bird_fraction


def run_profile(name):
    """The arrival profile experiment ``name`` measures (fast profile)."""
    return profile_from_metrics(run_fast(name)["profile"])


def test_fig10_medium_profile(benchmark):
    profile = benchmark.pedantic(
        run_profile, args=("fig10",), rounds=1, iterations=1)
    fraction = early_bird_fraction(profile)
    # Fig. 10: every non-laggard partition transfers inside the delay.
    assert fraction == 1.0
    # Laggard delayed by ~4% of 100 ms.
    assert 3e-3 < profile.laggard_time < 6e-3
    benchmark.extra_info["early_bird_fraction"] = fraction
    benchmark.extra_info["laggard_delay_ms"] = round(
        profile.laggard_time * 1e3, 2)


if __name__ == "__main__":
    sys.exit(script_main("fig10", __doc__))
