"""Fig. 12: estimated minimum delta per message size and partition count.

For each (message size, partition count), profiles the perceived-
bandwidth benchmark's arrival times, drops the laggard, and reports the
spread between the first and last non-laggard arrival — the minimum
delta that would cover them (Section V-C3).  Expected shape: minimum
delta grows with the partition count (more threads take turns on the
arrival atomics); around tens of microseconds at 32 partitions.
Sizes where the PLogGP model requests no aggregation are omitted, as
in the paper's figure.
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


def run_fig12():
    """{(size, n_partitions): min delta} at the fast profile, skipping
    no-aggregation points."""
    return {(size, n_user): delta
            for size, n_user, delta in run_fast("fig12")["rows"]}


def test_fig12_minimum_delta(benchmark):
    # 16/32/128 partitions: at 8 MiB the PLogGP plan aggregates for all
    # of these (8 partitions would be a no-aggregation point, omitted
    # as in the paper's figure).
    table = benchmark.pedantic(run_fig12, rounds=1, iterations=1)
    # Minimum delta grows with partition count.
    assert table[(8 * MiB, 16)] < table[(8 * MiB, 32)] < table[(8 * MiB, 128)]
    # Tens of microseconds at 32 partitions (paper: ~35 us).
    assert 2e-6 < table[(8 * MiB, 32)] < 300e-6
    benchmark.extra_info["min_delta_32p_8MiB_us"] = round(
        table[(8 * MiB, 32)] * 1e6, 1)
    benchmark.extra_info["paper_value_us"] = 35


if __name__ == "__main__":
    sys.exit(script_main("fig12", __doc__))
