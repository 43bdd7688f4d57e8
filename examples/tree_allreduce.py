#!/usr/bin/env python3
"""Partitioned tree collectives over a binomial tree (``repro.coll``).

In an allreduce every rank's worker threads ``Pready`` their
contribution partitions after a noisy compute phase, and a round
completes when the reduced result has streamed back down to every
leaf; in a broadcast only the root contributes.  The module on every
tree edge is either the ``part_persist`` baseline or native PLogGP
aggregation, so the comparison isolates what aggregation does to the
collective's critical path (docs/COLLECTIVES.md).  The buffers are
backed: every rank checks the bytes it ends each round with.

Run:  python examples/tree_allreduce.py
"""

from repro.bench.coll import run_pcoll
from repro.core import PLogGPAggregator
from repro.model.tables import NIAGARA_LOGGP
from repro.units import KiB, fmt_time, ms


def main():
    designs = (("part_persist", lambda: None),
               ("ploggp", lambda: PLogGPAggregator(NIAGARA_LOGGP,
                                                   delay=ms(4))))
    for collective in ("pallreduce", "pbcast"):
        for name, module in designs:
            res = run_pcoll(module(), collective, world=8, n_threads=4,
                            partition_size=64 * KiB, iterations=5,
                            warmup=1, backed=True)
            print(f"{collective:>10} {name:>12}: "
                  f"{fmt_time(res.mean_time)} per round "
                  f"(comm {fmt_time(res.mean_comm_time)}), "
                  f"{res.integrity_failures} wrong-byte rounds")


if __name__ == "__main__":
    main()
