"""The perceived-bandwidth benchmark — Section V-C / Figs. 9, 13.

Measures tolerance to thread imbalance: sender threads compute (100 ms
in the paper) with single-thread-delay noise, and the metric is

    perceived bandwidth = total bytes / latency of the last partition,

where the last partition's latency runs from the laggard's
``MPI_Pready`` to receiver completion.  A perfect early-bird
implementation perceives only one partition's worth of latency, so the
perceived bandwidth can exceed the single-threaded hardware line —
the dotted line in Fig. 9, available here as
:func:`single_thread_line`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.bench.pair import PairBenchResult, run_partitioned_pair
from repro.config import ClusterConfig, NIAGARA
from repro.core.aggregators import Aggregator
from repro.mem.buffer import partition_size_of
from repro.mpi.modules import ModuleSpec
from repro.runtime import SingleThreadDelay


@dataclass
class PerceivedResult:
    """One perceived-bandwidth measurement."""

    n_user: int
    total_bytes: int
    compute: float
    noise_fraction: float
    perceived_bandwidth: float
    result: PairBenchResult


def single_thread_line(config: Optional[ClusterConfig] = None) -> float:
    """The hardware bandwidth available to single-threaded pt2pt (dotted
    line in Fig. 9), bytes/second."""
    config = config if config is not None else NIAGARA
    return config.nic.line_rate


def run_perceived_bandwidth(
    module: Union[Aggregator, ModuleSpec, Callable[[], ModuleSpec], None],
    n_user: int,
    total_bytes: int,
    compute: float = 100e-3,
    noise_fraction: float = 0.04,
    iterations: int = 10,
    warmup: int = 3,
    config: Optional[ClusterConfig] = None,
    fixed_victim: Optional[int] = None,
    fault_schedule=None,
) -> PerceivedResult:
    """One perceived-bandwidth point (None module = part_persist).

    Defaults follow the paper: 100 ms compute, 4 % noise, single-thread
    delay.  ``fixed_victim`` pins the laggard (used when profiling
    arrival patterns for Figs. 10-12); ``fault_schedule`` arms
    deterministic fault injection for the run.
    """
    result = run_partitioned_pair(
        module,
        n_user=n_user,
        partition_size=partition_size_of(total_bytes, n_user),
        compute=compute,
        noise=SingleThreadDelay(noise_fraction, fixed_victim=fixed_victim),
        iterations=iterations,
        warmup=warmup,
        config=config,
        fault_schedule=fault_schedule,
    )
    return PerceivedResult(
        n_user=n_user,
        total_bytes=total_bytes,
        compute=compute,
        noise_fraction=noise_fraction,
        perceived_bandwidth=result.mean_perceived_bandwidth,
        result=result,
    )
