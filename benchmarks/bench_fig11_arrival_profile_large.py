"""Fig. 11: profiled arrival pattern, 128 MiB, 100 ms compute, 4 % noise.

Same profile as Fig. 10 at 128 MiB.  Expected shape: the wire cannot
drain 127 MiB inside the ~4 ms laggard delay — only roughly 3/8 of the
early partitions transfer before the laggard arrives, so early-bird
gains are marginal and the perceived bandwidth sits near the hardware
line (Section V-C2).
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.bench_fig10_arrival_profile_medium import run_profile
from repro.exp import script_main
from repro.profiler import early_bird_fraction


def test_fig11_large_profile(benchmark):
    profile = benchmark.pedantic(
        run_profile, args=("fig11",), rounds=1, iterations=1)
    fraction = early_bird_fraction(profile)
    # Fig. 11: about 3/8 of the early partitions make it out in time.
    assert 0.2 < fraction < 0.55
    benchmark.extra_info["early_bird_fraction"] = round(fraction, 3)
    benchmark.extra_info["paper_value"] = "3/8 = 0.375"


if __name__ == "__main__":
    sys.exit(script_main("fig11", __doc__))
