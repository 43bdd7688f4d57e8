"""Tests for the closed loop itself (controller.py) and the store."""

import json

import pytest

from repro.autotune import (
    AutotuneController,
    BanditPolicy,
    IterationObservation,
    PlanChoice,
    StaticPolicy,
    TuningStore,
    workload_key,
)
from repro.autotune.store import SCHEMA


def obs(round_no, completion_time, pready=()):
    return IterationObservation(round=round_no,
                                completion_time=completion_time,
                                pready_times=tuple(pready))


def test_plan_for_round_is_idempotent():
    ctrl = AutotuneController(StaticPolicy(PlanChoice(8, 2)))
    first = ctrl.plan_for_round(0)
    assert ctrl.plan_for_round(0) is first
    assert len(ctrl.history) == 1


def test_hold_repeats_previous_choice():
    arms = [PlanChoice(1, 1), PlanChoice(2, 1)]
    ctrl = AutotuneController(BanditPolicy(arms))
    first = ctrl.plan_for_round(0)
    ctrl.observe(obs(0, 1.0))
    held = ctrl.plan_for_round(1, hold=True)
    assert held == first
    assert ctrl.history[1].held
    ctrl.observe(obs(1, 1.0))
    # Without hold the sweep moves to the second arm.
    assert ctrl.plan_for_round(2) == arms[1]


def test_observe_credits_choice_and_tracker():
    ctrl = AutotuneController(StaticPolicy(PlanChoice(4, 1)))
    choice = ctrl.plan_for_round(0)
    ctrl.observe(obs(0, 2.5, pready=[0.0, 1e-6, 5e-3]))
    assert ctrl.history[0].completion_time == 2.5
    assert ctrl.tracker.rounds_seen == 1
    assert ctrl.mean_time_of(choice) == 2.5


def test_observe_unknown_round_is_noop():
    ctrl = AutotuneController(StaticPolicy(PlanChoice(4, 1)))
    ctrl.observe(obs(7, 1.0))
    assert ctrl.history == []
    assert ctrl.tracker.rounds_seen == 0


def test_converged_round_trailing_run():
    arms = [PlanChoice(1, 1), PlanChoice(2, 1)]
    ctrl = AutotuneController(BanditPolicy(arms, epsilon=0.0))
    for r in range(6):
        choice = ctrl.plan_for_round(r)
        ctrl.observe(obs(r, 1.0 if choice == arms[1] else 9.0))
    # The sweep plays arms[1] at round 1 and exploitation never leaves
    # it, so the trailing identical-choice run starts there.
    assert ctrl.converged_round == 1
    assert ctrl.explored
    assert ctrl.best_choice == arms[1]


def test_round_plans_json_safe():
    ctrl = AutotuneController(StaticPolicy(PlanChoice(8, 2, 35e-6)))
    ctrl.plan_for_round(0)
    ctrl.observe(obs(0, 1.0))
    plans = ctrl.round_plans()
    assert json.loads(json.dumps(plans)) == plans
    assert plans[0]["n_transport"] == 8
    assert plans[0]["completion_time"] == 1.0


def test_store_commit_when_confident(tmp_path):
    store = TuningStore(tmp_path)
    key = workload_key(16, 1 << 20, "test")
    arms = [PlanChoice(1, 1), PlanChoice(2, 1)]
    ctrl = AutotuneController(
        BanditPolicy(arms, epsilon=0.0),
        store=store, store_key=key)
    assert len(store) == 0
    for r in range(3):
        ctrl.plan_for_round(r)
        ctrl.observe(obs(r, 1.0 + r))
    assert store.get(key) == ctrl.policy.best()
    meta = store.entries()[0]["meta"]
    assert meta["rounds_observed"] >= 2


def test_pinned_entry_replays_without_exploration(tmp_path):
    store = TuningStore(tmp_path)
    key = workload_key(16, 1 << 20, "test")
    pinned = PlanChoice(8, 2, 35e-6)
    store.put(key, pinned)
    arms = [PlanChoice(1, 1), PlanChoice(2, 1)]
    ctrl = AutotuneController(BanditPolicy(arms), store=store,
                              store_key=key)
    assert ctrl.pinned == pinned
    for r in range(4):
        assert ctrl.plan_for_round(r) == pinned
        ctrl.observe(obs(r, 1.0))
    assert not ctrl.explored
    assert ctrl.best_choice == pinned
    # A pinned run never rewrites the store.
    assert store.get(key) == pinned


def test_store_requires_key():
    with pytest.raises(ValueError):
        AutotuneController(StaticPolicy(PlanChoice(1, 1)),
                           store=TuningStore("/tmp/unused-store"))


def test_store_round_trip_and_lookup(tmp_path):
    store = TuningStore(tmp_path)
    choice = PlanChoice(16, 2, delta=None)
    store.put(workload_key(32, 2 << 20, "niagara"), choice)
    assert store.lookup(32, 2 << 20, "niagara") == choice
    assert store.lookup(32, 2 << 20, "other") is None
    assert len(store) == 1


def test_store_ignores_corrupt_entries(tmp_path):
    store = TuningStore(tmp_path)
    key = workload_key(8, 1 << 16)
    path = store.put(key, PlanChoice(4, 1))
    path.write_text("{not json")
    assert store.get(key) is None
    assert store.entries() == []
    # Wrong schema is rejected too.
    path.write_text(json.dumps({"schema": "other/v9", "plan": {}}))
    assert store.get(key) is None


def test_store_overwrites_atomically(tmp_path):
    store = TuningStore(tmp_path)
    key = workload_key(8, 1 << 16)
    store.put(key, PlanChoice(4, 1))
    store.put(key, PlanChoice(8, 2))
    assert store.get(key) == PlanChoice(8, 2)
    assert len(store) == 1
    payload = store.entries()[0]
    assert payload["schema"] == SCHEMA
    assert payload["key"] == key


# -- quarantine (chaos: faulted rounds must not poison the policy) -------


def test_tainted_observation_is_quarantined():
    ctrl = AutotuneController(StaticPolicy(PlanChoice(4, 1)))
    choice = ctrl.plan_for_round(0)
    ctrl.observe(IterationObservation(
        round=0, completion_time=9.0, pready_times=(0.0,), tainted=True))
    record = ctrl.history[0]
    # Recorded for diagnostics, invisible to the statistics.
    assert record.quarantined
    assert record.completion_time == 9.0
    assert ctrl.tracker.rounds_seen == 0
    assert ctrl.mean_time_of(choice) is None
    # A later clean round is credited normally.
    ctrl.plan_for_round(1)
    ctrl.observe(obs(1, 2.0, pready=[0.0]))
    assert ctrl.mean_time_of(choice) == 2.0
    plans = ctrl.round_plans()
    assert plans[0]["quarantined"] is True
    assert plans[1]["quarantined"] is False


def test_tainted_observation_does_not_commit_to_store(tmp_path):
    store = TuningStore(tmp_path)
    key = workload_key(4, 1 << 14)
    ctrl = AutotuneController(StaticPolicy(PlanChoice(4, 1)),
                              store=store, store_key=key)
    ctrl.plan_for_round(0)
    ctrl.observe(IterationObservation(
        round=0, completion_time=1.0, pready_times=(0.0,), tainted=True))
    assert store.get(key) is None
    ctrl.plan_for_round(1)
    ctrl.observe(obs(1, 1.0, pready=[0.0]))
    assert store.get(key) == PlanChoice(4, 1)
