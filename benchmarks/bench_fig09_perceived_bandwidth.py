"""Fig. 9: perceived bandwidth of the three designs (16 & 32 partitions).

100 ms compute, 4 % noise, single-thread-delay model, delta = 3000 us
for the timer design — the paper's exact workload.  Expected shape:
the persistent implementation and the timer design perceive the most
bandwidth (the laggard's message stays small), the static PLogGP
grouping trails for medium sizes, and everyone collapses towards the
single-thread hardware line at 128 MiB.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.bench.perceived import single_thread_line
from repro.exp import get_experiment, run_spec, script_main
from repro.units import MiB


def run_fig9(n_user, sizes, iterations=10, warmup=3):
    """The fig09 series for one partition count over any size grid."""
    return run_spec(get_experiment("fig09").spec(
        [n_user], sizes, iterations, warmup))["series"]


def test_fig09_perceived_bandwidth(benchmark):
    series = benchmark.pedantic(
        lambda: run_fast("fig09")["series"], rounds=1, iterations=1)
    line = single_thread_line()
    mid = 8 * MiB
    # Early bird: everyone above the single-thread line at medium size.
    for name in series:
        assert series[name][mid] > line
    # PLogGP trails persist and timer.
    assert series["ploggp"][mid] < series["persist"][mid]
    assert series["ploggp"][mid] < series["timer(3000us)"][mid]
    benchmark.extra_info["persist_8MiB_GiBps"] = round(
        series["persist"][mid] / 2**30, 1)
    benchmark.extra_info["ploggp_8MiB_GiBps"] = round(
        series["ploggp"][mid] / 2**30, 1)
    benchmark.extra_info["timer_8MiB_GiBps"] = round(
        series["timer(3000us)"][mid] / 2**30, 1)


if __name__ == "__main__":
    sys.exit(script_main("fig09", __doc__))
