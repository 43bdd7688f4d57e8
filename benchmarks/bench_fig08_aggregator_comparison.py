"""Fig. 8: tuning-table vs. PLogGP aggregator, 4/32/128 user partitions.

The brute-force tuning table (built on the simulated fabric, the
virtual-time equivalent of the paper's 23-hour Niagara search) against
the PLogGP model's instant prediction, both as speedup over
``part_persist``.  Expected shape (Section V-B2): narrow benefit range
at 4 partitions; clear medium-message speedup at 32 (paper peak 2.17x
at 128 KiB); largest gains at 128 partitions where oversubscription
makes the baseline's per-message lock contention worse; the two
aggregators stay within a few percent of each other.
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


def run_fig8():
    """The fig08 series at the fast profile (4 and 32 partitions)."""
    return run_fast("fig08")["series"]


def test_fig08_aggregator_comparison(benchmark):
    series = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    mid = 128 * KiB
    # 32 partitions gain clearly at medium sizes; 4 gain less.
    assert series["32p ploggp"][mid] > 1.5
    assert series["32p ploggp"][mid] > series["4p ploggp"][mid]
    # Table and model land in the same neighbourhood (paper: <9%; the
    # reduced-iteration search is noisier, so allow a wider band here —
    # the full-size run in __main__ lands much closer).
    ratio = series["32p tuning-table"][mid] / series["32p ploggp"][mid]
    assert 0.6 < ratio < 1.7
    benchmark.extra_info["speedup_32p_128KiB_ploggp"] = round(
        series["32p ploggp"][mid], 2)
    benchmark.extra_info["speedup_32p_128KiB_table"] = round(
        series["32p tuning-table"][mid], 2)


if __name__ == "__main__":
    sys.exit(script_main("fig08", __doc__))
