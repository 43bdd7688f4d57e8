"""Arrival-pattern reports: the data behind Figs. 10-12.

The paper plots, per user partition, the compute span (Start to
``MPI_Pready``) and an estimated communication span
(``comm = partition size / bandwidth``) appended at the arrival — and
asks how many partitions finish transferring before the laggard
arrives (the early-bird opportunity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ClusterConfig, NIAGARA


@dataclass(frozen=True)
class ArrivalProfile:
    """Fig. 10/11-style profile for one workload configuration."""

    partition_size: int
    #: Mean Pready time per partition, relative to MPI_Start,
    #: partitions sorted by arrival (laggard last).
    compute_spans: tuple[float, ...]
    #: Estimated wire time per partition (size / bandwidth).
    comm_span: float

    @property
    def n_partitions(self) -> int:
        return len(self.compute_spans)

    @property
    def laggard_time(self) -> float:
        return self.compute_spans[-1]

    def transfer_end(self, index: int) -> float:
        """When partition ``index`` (arrival order) finishes its wire
        time, assuming arrivals queue back-to-back on the wire."""
        end = 0.0
        for i in range(index + 1):
            end = max(end, self.compute_spans[i]) + self.comm_span
        return end


def arrival_profile(rounds: list[list[float]], partition_size: int,
                    config: ClusterConfig | None = None) -> ArrivalProfile:
    """Aggregate profiled rounds into a Fig. 10/11 profile.

    ``rounds`` holds per-round Pready times relative to the round's
    origin (:meth:`repro.bench.pair.PairBenchResult.arrival_rounds`,
    rebased on each round's first arrival).  Arrivals are
    sorted per round before averaging so the rotating noise victim does
    not smear the laggard.
    """
    config = config if config is not None else NIAGARA
    if not rounds:
        raise ValueError("no profiled rounds")
    arr = np.sort(np.asarray(rounds, dtype=float), axis=1)
    spans = tuple(float(x) for x in arr.mean(axis=0))
    return ArrivalProfile(
        partition_size=partition_size,
        compute_spans=spans,
        comm_span=partition_size / config.nic.line_rate,
    )


def early_bird_fraction(profile: ArrivalProfile) -> float:
    """Fraction of non-laggard partitions whose transfer completes
    before the laggard arrives (Fig. 10: all of them at 8 MiB;
    Fig. 11: about 3/8 at 128 MiB)."""
    n = profile.n_partitions
    if n <= 1:
        return 0.0
    laggard = profile.laggard_time
    done_early = sum(
        1 for i in range(n - 1) if profile.transfer_end(i) <= laggard)
    return done_early / (n - 1)
