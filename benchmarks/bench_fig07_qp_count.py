"""Fig. 7: overhead benchmark, 16 user/transport partitions, QP sweep.

No aggregation (16 transport partitions) while the number of QPs
varies.  Expected shape (Section V-B1): one QP is sufficient until
around 64 KiB; for larger messages one QP per partition performs
better ("large messages preferring more concurrency").
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import get_experiment, run_spec, script_main
from repro.exp.modules import config_desc
from repro.units import KiB, MiB


def run_fig7(sizes, iter_kwargs, config=None):
    """The fig07 series over any size grid, optionally on another
    ``ClusterConfig`` (e.g. a multi-port NIC)."""
    return run_spec(get_experiment("fig07").spec(
        sizes, iter_kwargs, config=config_desc(config)))["series"]


def test_fig07_qp_sweep(benchmark):
    series = benchmark.pedantic(
        lambda: run_fast("fig07")["series"], rounds=1, iterations=1)
    # Small: QP count hardly matters.
    small = 4 * KiB
    assert abs(series["QP=1"][small] - series["QP=16"][small]) \
        / series["QP=1"][small] < 0.3
    # Large: 16 QPs beat 1 QP.
    big = 16 * MiB
    assert series["QP=16"][big] > series["QP=1"][big]
    benchmark.extra_info["qp16_over_qp1_at_16MiB"] = round(
        series["QP=16"][big] / series["QP=1"][big], 3)


if __name__ == "__main__":
    sys.exit(script_main("fig07", __doc__))
