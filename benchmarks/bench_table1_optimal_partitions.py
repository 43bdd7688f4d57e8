"""Table I: optimal transport partitions predicted by PLogGP.

Runs the model optimizer across the table's size range and checks the
output against the paper's published rows:

    <256KiB -> 1, 512KiB-1MiB -> 2, 2-4MiB -> 4, 8-16MiB -> 8,
    32-64MiB -> 16, >128MiB -> 32.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import script_main
from repro.model.tables import TABLE1_PAPER


def run_table1():
    return run_fast("table1")["table"]


def test_table1_reproduction(benchmark):
    got = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    matches = sum(1 for size, want in TABLE1_PAPER.items()
                  if got[size] == want)
    benchmark.extra_info["rows_matched"] = f"{matches}/{len(TABLE1_PAPER)}"
    assert matches == len(TABLE1_PAPER)


if __name__ == "__main__":
    sys.exit(script_main("table1", __doc__))
