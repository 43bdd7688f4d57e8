"""Closed-loop aggregation tuning (the online answer to Section IV-D).

The paper's aggregators are open-loop: an offline table, a one-shot
model prediction, or a fixed δ.  This package closes the loop — a
controller observes every iteration of a persistent partitioned
exchange and adapts the next iteration's ``(n_transport, n_qps, δ)``
plan, persisting what it learns across runs.

Layering: ``observe`` (sensors) → ``policy`` / ``plan_policy``
(decisions; the latter searches by rewriting the ``repro.plan`` IR) →
``controller`` (the loop) → ``aggregator`` (the ``core.module``
plug-in) → ``store`` (cross-run persistence, keyed by workload and
plan-space digest).
"""

from repro.autotune.aggregator import (
    AdaptiveAggregator,
    PolicyBuilder,
    build_autotuner,
)
from repro.autotune.controller import AutotuneController, RoundRecord
from repro.autotune.observe import ArrivalTracker, IterationObservation
from repro.autotune.plan_policy import PlanMutationPolicy
from repro.autotune.policy import (
    BanditPolicy,
    DeltaTrackerPolicy,
    PlanChoice,
    Policy,
    StaticPolicy,
    candidate_plans,
)
from repro.autotune.store import (
    PlanStore,
    TuningStore,
    WorkloadKey,
    workload_key,
)

__all__ = [
    "AdaptiveAggregator",
    "ArrivalTracker",
    "AutotuneController",
    "BanditPolicy",
    "DeltaTrackerPolicy",
    "IterationObservation",
    "PlanChoice",
    "PlanMutationPolicy",
    "PlanStore",
    "Policy",
    "PolicyBuilder",
    "RoundRecord",
    "StaticPolicy",
    "TuningStore",
    "WorkloadKey",
    "build_autotuner",
    "candidate_plans",
    "workload_key",
]
