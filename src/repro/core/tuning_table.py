"""The brute-force tuning table (paper Section IV-B).

The paper exhaustively searched (transport partitions, QPs) per
(user partitions, message size) for one process pair — "just under 23
hours on two nodes" — and stored the winners in a hash table keyed by
*(number of user partitions, message size)*.  Here the same search runs
against the simulator (:func:`build_tuning_table`), in virtual time, and
the resulting :class:`TuningTable` plugs into the native module through
:class:`TuningTableAggregator`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from repro.core.aggregators import Aggregator, PlanChoice, _qps_for
from repro.errors import TuningError
from repro.units import is_power_of_two, powers_of_two


@dataclass
class TuningTable:
    """(n_user, message_size) -> (n_transport, n_qps).

    Message-size lookup floors to the nearest recorded size, as tuning
    tables in production MPI libraries do.
    """

    entries: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    #: Per-``n_user`` sorted size lists, built lazily by :meth:`lookup`
    #: and invalidated by :meth:`add` (mutate through ``add`` only).
    _sorted_sizes: dict[int, list[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def add(self, n_user: int, message_size: int,
            n_transport: int, n_qps: int) -> None:
        if not is_power_of_two(n_user) or not is_power_of_two(n_transport):
            raise TuningError("partition counts must be powers of two")
        if message_size <= 0 or n_qps < 1:
            raise TuningError("invalid table entry")
        if n_transport > n_user:
            raise TuningError(
                f"n_transport {n_transport} exceeds n_user {n_user}")
        self.entries[(n_user, message_size)] = (n_transport, n_qps)
        self._sorted_sizes.pop(n_user, None)

    def _sizes_for(self, n_user: int) -> list[int]:
        sizes = self._sorted_sizes.get(n_user)
        if sizes is None:
            sizes = sorted(s for (u, s) in self.entries if u == n_user)
            self._sorted_sizes[n_user] = sizes
        return sizes

    def lookup(self, n_user: int, message_size: int) -> tuple[int, int]:
        sizes = self._sizes_for(n_user)
        if not sizes:
            raise TuningError(f"no tuning entries for {n_user} user partitions")
        idx = bisect.bisect_right(sizes, message_size) - 1
        if idx < 0:
            idx = 0
        return self.entries[(n_user, sizes[idx])]

    def __len__(self) -> int:
        return len(self.entries)


class TuningTableAggregator(Aggregator):
    """Aggregation driven by a brute-force-derived table (Section IV-B)."""

    def __init__(self, table: TuningTable):
        if len(table) == 0:
            raise TuningError("empty tuning table")
        self.table = table

    def plan(self, n_user, partition_size, config):
        n_transport, n_qps = self.table.lookup(
            n_user, n_user * partition_size)
        n_transport = min(n_transport, n_user)
        return PlanChoice(n_transport=n_transport, n_qps=n_qps)

    def describe(self):
        return f"tuning-table({len(self.table)} entries)"


def build_tuning_table(
    n_user_counts: list[int],
    message_sizes: list[int],
    qp_candidates: Optional[list[int]] = None,
    config=None,
    iterations: int = 5,
    warmup: int = 1,
) -> TuningTable:
    """Brute-force search on the simulated fabric.

    For each (user partitions, total message size) point, runs the
    overhead benchmark across every power-of-two transport count and
    each QP candidate, and records the fastest combination.  The
    simulator's 23-hour equivalent — but in virtual time.
    """
    from repro.bench.overhead import run_overhead  # circular-import guard
    from repro.config import NIAGARA
    from repro.core.aggregators import FixedAggregation

    if config is None:
        config = NIAGARA
    table = TuningTable()
    for n_user in n_user_counts:
        if not is_power_of_two(n_user):
            raise TuningError(f"n_user {n_user} is not a power of two")
        for size in message_sizes:
            if size < n_user:
                continue
            best = None
            for n_transport in powers_of_two(1, n_user):
                candidates = qp_candidates or sorted(
                    {1, _qps_for(n_transport, n_transport, config)})
                for n_qps in candidates:
                    result = run_overhead(
                        FixedAggregation(n_transport, n_qps),
                        n_user=n_user,
                        total_bytes=size,
                        iterations=iterations,
                        warmup=warmup,
                        config=config,
                    )
                    key = (result.mean_time, n_transport, n_qps)
                    if best is None or key < best:
                        best = key
            _, n_transport, n_qps = best
            table.add(n_user, size, n_transport, n_qps)
    return table
