"""Fig. 13: perceived bandwidth across a window of delta values.

The paper estimates a ~35 us minimum delta for 32 partitions (Fig. 12)
and then shows that running the timer aggregator with delta in
{10, 35, 100} us changes perceived bandwidth by at most ~6% — the
mechanism tolerates a 3.5x mis-tuning.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import PERCEIVED_SIZES_FAST, run_fast
from repro.exp import script_main
from repro.units import MiB


def test_fig13_delta_window(benchmark):
    series = benchmark.pedantic(
        lambda: run_fast("fig13")["series"], rounds=1, iterations=1)
    worst_spread = 0.0
    for size in PERCEIVED_SIZES_FAST:
        if size < 8 * MiB:
            # At small totals the absolute last-partition latency is a
            # few microseconds, so tiny ordering differences read as
            # large relative spreads; the paper's 6.15% bound is for
            # its medium/large sizes.
            continue
        values = [series[name][size] for name in series]
        spread = (max(values) - min(values)) / min(values)
        worst_spread = max(worst_spread, spread)
    # Paper: at most 6.15%; allow slack at reduced iterations.
    assert worst_spread < 0.15
    benchmark.extra_info["worst_spread_pct"] = round(worst_spread * 100, 2)
    benchmark.extra_info["paper_value_pct"] = 6.15


if __name__ == "__main__":
    sys.exit(script_main("fig13", __doc__))
