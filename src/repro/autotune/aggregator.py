"""The aggregator that carries a closed-loop controller into the module.

:class:`AdaptiveAggregator` satisfies the same
:class:`~repro.core.aggregators.Aggregator` interface as the paper's
open-loop strategies, so it plugs into ``Psend_init`` unchanged.  Its
``provision`` sizes QPs for the largest candidate arm and hands the
native module an :class:`~repro.autotune.controller.AutotuneController`
to consult at the top of every round.

:func:`build_autotuner` is the JSON-safe factory shared by the ``exp``
descriptor vocabulary, the benchmarks, and the CLI: a plain parameter
dict in, a ready aggregator out.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.config import ClusterConfig
from repro.core.aggregators import Aggregator, PlanChoice, _qps_for
from repro.errors import ConfigError, check_keys
from repro.units import ms

from repro.autotune.controller import AutotuneController
from repro.autotune.observe import ArrivalTracker
from repro.autotune.policy import (
    BanditPolicy,
    DeltaTrackerPolicy,
    Policy,
    StaticPolicy,
    candidate_plans,
)
from repro.autotune.store import PlanStore, workload_key

#: (n_user, partition_size, config) -> Policy, called once per request.
PolicyBuilder = Callable[[int, int, ClusterConfig], Policy]


class AdaptiveAggregator(Aggregator):
    """Closed-loop aggregation: plan per round, not per request."""

    def __init__(self, policy_builder: PolicyBuilder,
                 store: Optional[PlanStore] = None,
                 config_tag: str = "", key_extra: Optional[dict] = None,
                 tracker_window: int = 32):
        self.policy_builder = policy_builder
        self.store = store
        self.config_tag = config_tag
        self.key_extra = dict(key_extra or {})
        self.tracker_window = tracker_window
        #: The most recent request's controller (inspection/benchmarks).
        self.controller: Optional[AutotuneController] = None

    def plan(self, n_user, partition_size, config):
        return self.provision(n_user, partition_size, config)[0]

    def provision(self, n_user, partition_size, config):
        policy = self.policy_builder(n_user, partition_size, config)
        arms = policy.candidates()
        if not arms:
            raise ConfigError("autotune policy produced no candidates")
        for choice in arms:
            choice.validate_for(n_user)
        store_key = None
        if self.store is not None:
            # The plan-space digest keys the entry to the *structure*
            # being searched, not just the workload: two policies whose
            # knob tuples coincide but whose plan IR differs get
            # distinct entries.
            store_key = workload_key(
                n_user, n_user * partition_size, self.config_tag,
                plan_space=policy.plan_space_digest(),
                **self.key_extra)
        controller = AutotuneController(
            policy,
            tracker=ArrivalTracker(window=self.tracker_window),
            store=self.store, store_key=store_key,
            store_meta={"config": self.config_tag})
        pinned = controller.pinned
        if pinned is not None and pinned.n_transport > n_user:
            # A stale entry from a different workload shape: ignore it
            # and let this run re-learn (and overwrite) the plan.
            controller.pinned = pinned = None
        self.controller = controller
        n_qps = max(choice.n_qps for choice in arms)
        if pinned is not None:
            n_qps = max(n_qps, pinned.n_qps)
        first = pinned if pinned is not None else arms[0]
        return replace(first, n_qps=n_qps), controller

    def describe(self):
        if self.controller is not None:
            return f"autotune({self.controller.policy.describe()})"
        return "autotune(unplanned)"


def _model_layout(p: dict, n_user: int, partition_size: int,
                  config: ClusterConfig, delta=None) -> PlanChoice:
    """The PLogGP-predicted layout a δ-tracker or mutation walk starts
    from (the Niagara calibration, at most 32 transport partitions)."""
    from repro.model.ploggp import optimal_transport_partitions
    from repro.model.tables import NIAGARA_LOGGP

    t = optimal_transport_partitions(
        NIAGARA_LOGGP, n_user * partition_size, n_user=n_user,
        delay=p.get("delay", ms(4)), max_transport=32)
    t = min(t, n_user)
    return PlanChoice(t, _qps_for(t, n_user, config), delta=delta)


#: The keys each policy reads besides :data:`COMMON_KEYS`.
POLICY_KEYS = {
    "bandit": ("counts", "deltas", "epsilon", "decay", "bandit_seed",
               "delay", "window"),
    "delta_tracker": ("delta", "quantile", "margin", "alpha", "min_delta",
                      "max_delta", "warm_rounds", "delay"),
    "static": ("choice",),
    "plan_mutation": ("seed_plan", "deltas", "epsilon", "decay",
                      "bandit_seed", "expand_after", "max_frontier",
                      "delay", "window"),
}
#: The keys every policy reads.
COMMON_KEYS = ("policy", "config_tag", "key_extra", "tracker_window")


def check_autotune(params) -> dict:
    """``params`` as a dict, or a :class:`ConfigError` naming a key its
    policy does not read (:data:`POLICY_KEYS`)."""
    if not isinstance(params, (dict, type(None))):
        raise ConfigError(f"want a JSON object, got {params!r}")
    p = dict(params or {})
    name = p.get("policy", "bandit")
    if name not in POLICY_KEYS:
        raise ConfigError(f"unknown autotune policy {name!r} "
                          f"(have: {', '.join(POLICY_KEYS)})")
    return check_keys(f"autotune policy {name!r}", p,
                      COMMON_KEYS + POLICY_KEYS[name])


def build_autotuner(params: Optional[dict] = None,
                    store: Optional[PlanStore] = None) -> AdaptiveAggregator:
    """Build an :class:`AdaptiveAggregator` from a JSON-safe dict.

    ``store`` is anything speaking the
    :class:`~repro.autotune.store.PlanStore` protocol — a local
    :class:`~repro.autotune.TuningStore` or a
    :class:`repro.serve.ServeClient` resolving plans through the
    tuning service.

    ``params["policy"]`` selects the policy, and :data:`POLICY_KEYS`
    lists the keys each reads (any other is a :class:`ConfigError`):

    * ``"bandit"`` (default) — decaying epsilon-greedy over
      :func:`~repro.autotune.policy.candidate_plans` (``window``:
      sliding-window cost estimates for shifting fabrics).
    * ``"delta_tracker"`` — δ retargeting on the PLogGP-derived layout.
    * ``"static"`` — pin ``params["choice"]`` (controller machinery
      validation; behaves like the equivalent fixed aggregator).
    * ``"plan_mutation"`` — epsilon-greedy walk of the plan-IR rewrite
      graph (:class:`~repro.autotune.plan_policy.PlanMutationPolicy`)
      from a PLogGP-seeded (or explicit ``seed_plan`` text) leaf plan.
    """
    p = check_autotune(params)
    name = p.get("policy", "bandit")

    if name == "bandit":
        def builder(n_user, partition_size, config):
            arms = candidate_plans(
                n_user, partition_size, config,
                delay=p.get("delay", ms(4)), counts=p.get("counts"),
                deltas=tuple(p.get("deltas", [None])))
            return BanditPolicy(
                arms, epsilon=p.get("epsilon", 0.2),
                decay=p.get("decay", 0.95), seed=p.get("bandit_seed", 0),
                window=p.get("window"))
    elif name == "delta_tracker":
        def builder(n_user, partition_size, config):
            return DeltaTrackerPolicy(
                _model_layout(p, n_user, partition_size, config,
                              delta=p.get("delta")),
                quantile=p.get("quantile", 0.95),
                margin=p.get("margin", 1.25), alpha=p.get("alpha", 0.5),
                min_delta=p.get("min_delta", 1e-6),
                max_delta=p.get("max_delta", 1e-3),
                warm_rounds=p.get("warm_rounds", 4))
    elif name == "static":
        def builder(n_user, partition_size, config):
            return StaticPolicy(PlanChoice.from_dict(p["choice"]))
    elif name == "plan_mutation":
        def builder(n_user, partition_size, config):
            from repro.plan import parse

            from repro.autotune.plan_policy import PlanMutationPolicy

            seed_text = p.get("seed_plan")
            if seed_text is not None:
                seed_plan = parse(seed_text)
            else:
                seed_plan = _model_layout(p, n_user, partition_size,
                                          config).plan
            return PlanMutationPolicy(
                seed_plan, n_user=n_user, config=config,
                deltas=tuple(p.get("deltas", [])),
                epsilon=p.get("epsilon", 0.3),
                decay=p.get("decay", 0.9),
                seed=p.get("bandit_seed", 0),
                expand_after=p.get("expand_after", 2),
                max_frontier=p.get("max_frontier", 32),
                window=p.get("window"))

    return AdaptiveAggregator(
        builder, store=store, config_tag=p.get("config_tag", ""),
        key_extra=p.get("key_extra"),
        tracker_window=p.get("tracker_window", 32))
