"""Extension: halo-exchange pattern speedups.

The paper's benchmark suite [14] ships a halo exchange next to Sweep3D
but the paper's evaluation shows only the sweep; this extension runs
the halo with the same designs.  Unlike the wavefront, all ranks
exchange concurrently, so the fabric (including ingress contention at
every rank) is loaded uniformly.
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


def test_ext_halo(benchmark):
    series = benchmark.pedantic(
        lambda: run_fast("ext_halo")["series"], rounds=1, iterations=1)
    mid = 256 * KiB
    # Aggregation helps the halo at medium face sizes too.
    assert series["ploggp"][mid] > 1.2
    benchmark.extra_info["halo_speedup_ploggp_256KiB"] = round(
        series["ploggp"][mid], 2)


if __name__ == "__main__":
    sys.exit(script_main("ext_halo", __doc__))
