#!/usr/bin/env python3
"""A partitioned allreduce over a binomial tree (``repro.coll``).

Every rank's worker threads ``Pready`` their contribution partitions
after a noisy compute phase; a round completes when the reduced result
has streamed back down to every leaf.  The module on every tree edge is
either the ``part_persist`` baseline or native PLogGP aggregation, so
the comparison isolates what aggregation does to the reduction's
critical path (docs/COLLECTIVES.md).

Run:  python examples/tree_allreduce.py
"""

from repro.bench.coll import run_pallreduce
from repro.core import PLogGPAggregator
from repro.model.tables import NIAGARA_LOGGP
from repro.units import KiB, fmt_time, ms


def main():
    designs = (("part_persist", None),
               ("ploggp", PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))))
    for name, module in designs:
        res = run_pallreduce(module, world=8, n_threads=4,
                             partition_size=64 * KiB, iterations=5,
                             warmup=1)
        print(f"{name:>12}: {fmt_time(res.mean_time)} per allreduce "
              f"(comm {fmt_time(res.mean_comm_time)})")


if __name__ == "__main__":
    main()
