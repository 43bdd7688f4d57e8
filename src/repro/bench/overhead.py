"""The overhead (wire-efficiency) benchmark — Section V-B / Figs. 6-8.

No compute, no noise: all threads mark their partition immediately, so
the measurement isolates per-message software and hardware overheads.
Results are reported as speedup relative to the ``part_persist``
baseline at the same workload, exactly as the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.bench.pair import PairBenchResult, run_partitioned_pair
from repro.config import ClusterConfig
from repro.core.aggregators import Aggregator
from repro.mem.buffer import partition_size_of
from repro.mpi.modules import ModuleSpec


@dataclass
class OverheadResult:
    """One overhead-benchmark measurement."""

    n_user: int
    total_bytes: int
    mean_time: float
    result: PairBenchResult

    @property
    def partition_size(self) -> int:
        return self.total_bytes // self.n_user


def run_overhead(
    module: Union[Aggregator, ModuleSpec, Callable[[], ModuleSpec], None],
    n_user: int,
    total_bytes: int,
    iterations: int = 100,
    warmup: int = 10,
    config: Optional[ClusterConfig] = None,
    backed: bool = False,
) -> OverheadResult:
    """One overhead point: ``module`` (None = part_persist baseline)."""
    result = run_partitioned_pair(
        module,
        n_user=n_user,
        partition_size=partition_size_of(total_bytes, n_user),
        compute=0.0,
        iterations=iterations,
        warmup=warmup,
        config=config,
        backed=backed,
    )
    return OverheadResult(
        n_user=n_user,
        total_bytes=total_bytes,
        mean_time=result.mean_time,
        result=result,
    )


def overhead_speedup_series(
    module: Union[Aggregator, ModuleSpec, Callable[[], ModuleSpec]],
    n_user: int,
    sizes: Sequence[int],
    iterations: int = 100,
    warmup: int = 10,
    config: Optional[ClusterConfig] = None,
    baseline_cache: Optional[dict] = None,
) -> dict[int, float]:
    """Speedup over ``part_persist`` across message sizes (a Fig. 6-8 line).

    ``baseline_cache`` (size -> mean time) lets several series share one
    baseline sweep, as the figures do.
    """
    speedups: dict[int, float] = {}
    cache = baseline_cache if baseline_cache is not None else {}
    for size in sizes:
        if size not in cache:
            cache[size] = run_overhead(
                None, n_user=n_user, total_bytes=size,
                iterations=iterations, warmup=warmup, config=config,
            ).mean_time
        ours = run_overhead(
            module, n_user=n_user, total_bytes=size,
            iterations=iterations, warmup=warmup, config=config,
        ).mean_time
        speedups[size] = cache[size] / ours
    return speedups
