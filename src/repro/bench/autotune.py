"""The autotune convergence benchmark (repro.autotune end to end).

Runs one persistent partitioned exchange for many iterations with an
:class:`~repro.autotune.AdaptiveAggregator` driving the plan, and
reports the convergence trajectory: per-round plans and completion
times, the final converged plan, and the mean time over the trailing
converged window — the numbers ``ext_autotune`` compares against the
offline tuning-table optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.bench.pair import PairBenchResult, run_partitioned_pair
from repro.config import ClusterConfig
from repro.mem.buffer import partition_size_of
from repro.runtime import SingleThreadDelay

from repro.autotune import AdaptiveAggregator, TuningStore, build_autotuner


@dataclass
class AutotuneRunResult:
    """One autotuned run's convergence trajectory."""

    n_user: int
    total_bytes: int
    result: PairBenchResult
    #: Per-round plan/outcome dicts from the controller history.
    round_plans: list[dict] = field(default_factory=list)
    best_plan: Optional[dict] = None
    #: Observed mean completion time of rounds that ran the best plan.
    best_plan_time: Optional[float] = None
    #: First measured round of the trailing run of identical choices.
    converged_round: Optional[int] = None
    #: Whether more than one distinct plan was ever applied.
    explored: bool = False

    @property
    def mean_time(self) -> float:
        return self.result.mean_time

    @property
    def mean_comm_time(self) -> float:
        return self.result.mean_comm_time

    @property
    def mean_perceived_bandwidth(self) -> float:
        return self.result.mean_perceived_bandwidth

    @property
    def final_time(self) -> float:
        """Mean completion time over the trailing converged window.

        Falls back to the overall mean when the controller never
        settled (still exploring at the last round).
        """
        if self.converged_round is None:
            return self.mean_time
        tail = [r["completion_time"] for r in self.round_plans
                if r["round"] >= self.converged_round
                and r["completion_time"] is not None]
        if not tail:
            return self.mean_time
        return float(np.mean(tail))


def run_autotuned_pair(
    autotune_params: Optional[dict] = None,
    n_user: int = 32,
    total_bytes: int = 2 << 20,
    compute: float = 0.0,
    noise_fraction: float = 0.0,
    iterations: int = 64,
    warmup: int = 2,
    config: Optional[ClusterConfig] = None,
    store: Optional[TuningStore] = None,
    aggregator: Optional[AdaptiveAggregator] = None,
) -> AutotuneRunResult:
    """Run one autotuned configuration end to end.

    ``autotune_params`` feeds :func:`repro.autotune.build_autotuner`
    (ignored when an ``aggregator`` is passed directly).  Warmup rounds
    are part of the learning trajectory — the controller sees every
    round — but only measured rounds enter the aggregate statistics,
    matching the pair harness convention.
    """
    agg = aggregator if aggregator is not None else build_autotuner(
        autotune_params, store=store)
    noise = SingleThreadDelay(noise_fraction) if noise_fraction > 0 else None
    result = run_partitioned_pair(
        agg,
        n_user=n_user,
        partition_size=partition_size_of(total_bytes, n_user),
        compute=compute,
        noise=noise,
        iterations=iterations,
        warmup=warmup,
        config=config,
    )
    controller = agg.controller
    out = AutotuneRunResult(
        n_user=n_user, total_bytes=total_bytes, result=result)
    if controller is not None:
        out.round_plans = controller.round_plans()
        out.best_plan = controller.best_choice.as_dict()
        out.best_plan_time = controller.mean_time_of(controller.best_choice)
        out.explored = controller.explored
        converged = controller.converged_round
        # The trajectory includes warmup rounds; completion times for
        # them are real observations, so the converged round stands as
        # reported by the controller.
        out.converged_round = converged
    return out
