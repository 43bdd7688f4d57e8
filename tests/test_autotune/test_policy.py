"""Tests for the tuning policies (policy.py)."""

import pytest

from repro.autotune import (
    ArrivalTracker,
    BanditPolicy,
    DeltaTrackerPolicy,
    IterationObservation,
    PlanChoice,
    StaticPolicy,
    candidate_plans,
)
from repro.autotune.policy import SEED_SPAN
from repro.config import NIAGARA
from repro.errors import ConfigError, TuningError
from repro.units import us


def obs(round_no, completion_time, pready=()):
    return IterationObservation(round=round_no,
                                completion_time=completion_time,
                                pready_times=tuple(pready))


def test_plan_choice_validation():
    with pytest.raises(ConfigError):
        PlanChoice(n_transport=3, n_qps=1)
    with pytest.raises(ConfigError):
        PlanChoice(n_transport=4, n_qps=0)
    with pytest.raises(ConfigError):
        PlanChoice(n_transport=4, n_qps=1, delta=-1e-6)
    with pytest.raises(TuningError):
        PlanChoice(n_transport=16, n_qps=1).validate_for(8)


def test_plan_choice_dict_round_trip():
    for choice in (PlanChoice(8, 2, us(35)), PlanChoice(4, 1),
                   PlanChoice(1, 1, us(5))):
        assert PlanChoice.from_dict(choice.as_dict()) == choice
    assert PlanChoice(4, 1).as_dict() == {
        "n_transport": 4, "n_qps": 1, "delta": None}
    # A stored key beyond the three knobs is refused, not dropped.
    with pytest.raises(ConfigError):
        PlanChoice.from_dict({"n_transport": 1, "n_qps": 1, "delta": us(5),
                              "scatter_gather": True})


def test_static_policy_is_constant_and_confident():
    choice = PlanChoice(8, 2)
    policy = StaticPolicy(choice)
    assert policy.candidates() == [choice]
    assert policy.choose(0) is choice
    assert policy.best() is choice
    assert policy.confident


def test_delta_tracker_requires_armed_base():
    with pytest.raises(ConfigError):
        DeltaTrackerPolicy(PlanChoice(8, 2, delta=None))


def test_delta_tracker_moves_toward_observed_spread():
    base = PlanChoice(8, 2, delta=us(3000))
    policy = DeltaTrackerPolicy(base, margin=1.0, alpha=1.0,
                                max_delta=us(3000))
    tracker = ArrivalTracker()
    pready = [0.0, 10e-6, 20e-6, 4e-3]  # laggard excluded
    tracker.observe(pready)
    policy.observe(policy.choose(0), obs(0, 1.0, pready), tracker)
    assert policy.choose(1).delta == pytest.approx(20e-6)
    # Layout never moves, only delta.
    assert policy.choose(1).n_transport == base.n_transport
    assert policy.choose(1).n_qps == base.n_qps


def test_delta_tracker_clamps_and_warms_up():
    base = PlanChoice(8, 2, delta=us(100))
    policy = DeltaTrackerPolicy(base, margin=1.0, alpha=1.0,
                                min_delta=us(10), max_delta=us(200),
                                warm_rounds=2)
    tracker = ArrivalTracker()
    # Non-laggard spread of 1ms (the 2ms laggard is dropped) -> clamp high.
    tracker.observe([0.0, 1e-3, 2e-3])
    policy.observe(policy.choose(0), obs(0, 1.0, [0.0, 1e-3, 2e-3]), tracker)
    assert policy.choose(1).delta == pytest.approx(us(200))
    assert not policy.confident
    tracker.observe([0.0, 0.0, 0.0])  # zero spread -> clamp low
    policy.observe(policy.choose(1), obs(1, 1.0, [0.0, 0.0, 0.0]), tracker)
    assert policy.choose(2).delta >= us(10)
    assert policy.confident


def test_bandit_initial_sweep_plays_every_arm():
    arms = [PlanChoice(1, 1), PlanChoice(2, 1), PlanChoice(4, 1)]
    policy = BanditPolicy(arms, seed=3)
    seen = []
    for r in range(len(arms)):
        choice = policy.choose(r)
        seen.append(choice)
        policy.observe(choice, obs(r, 1.0 + r), ArrivalTracker())
    assert seen == arms


def test_bandit_exploits_cheapest_arm():
    arms = [PlanChoice(1, 1), PlanChoice(2, 1)]
    policy = BanditPolicy(arms, epsilon=0.0, seed=0)
    policy.observe(arms[0], obs(0, 5.0), ArrivalTracker())
    policy.observe(arms[1], obs(1, 1.0), ArrivalTracker())
    assert policy.best() == arms[1]
    assert all(policy.choose(r) == arms[1] for r in range(2, 10))


def test_bandit_deterministic_per_seed():
    arms = [PlanChoice(1, 1), PlanChoice(2, 1), PlanChoice(4, 1)]
    runs = []
    for _ in range(2):
        policy = BanditPolicy(arms, epsilon=0.5, seed=42)
        trace = []
        for r in range(20):
            choice = policy.choose(r)
            trace.append(choice)
            policy.observe(choice, obs(r, 1.0 + choice.n_transport),
                           ArrivalTracker())
        runs.append(trace)
    assert runs[0] == runs[1]


def test_bandit_confidence_requires_full_sweep():
    arms = [PlanChoice(1, 1), PlanChoice(2, 1)]
    policy = BanditPolicy(arms)  # MIN_CONFIDENT_PLAYS == 2
    policy.observe(arms[0], obs(0, 1.0), ArrivalTracker())
    assert not policy.confident
    policy.observe(arms[1], obs(1, 2.0), ArrivalTracker())
    assert not policy.confident  # best arm played once, needs two
    policy.observe(arms[0], obs(2, 1.0), ArrivalTracker())
    assert policy.confident


def test_bandit_ignores_foreign_choice():
    arms = [PlanChoice(1, 1)]
    policy = BanditPolicy(arms)
    policy.observe(PlanChoice(32, 4), obs(0, 1.0), ArrivalTracker())
    assert policy.candidates() == arms
    assert policy.describe() == "bandit(epsilon, 0/1 arms played)"


def test_bandit_validation():
    with pytest.raises(ConfigError):
        BanditPolicy([])
    with pytest.raises(ConfigError):
        BanditPolicy([PlanChoice(1, 1), PlanChoice(1, 1)])


def test_candidate_plans_explicit_counts():
    arms = candidate_plans(32, 64 * 1024, NIAGARA, counts=[4, 8],
                           deltas=(None, us(35)))
    assert {a.n_transport for a in arms} == {4, 8}
    assert {a.delta for a in arms} == {None, us(35)}
    for a in arms:
        a.validate_for(32)


def test_candidate_plans_seeded_by_model():
    arms = candidate_plans(32, 64 * 1024, NIAGARA)
    counts = sorted({a.n_transport for a in arms})
    # A neighbourhood of SEED_SPAN octaves either side holds at most
    # 2 * SEED_SPAN + 1 powers of two.
    assert 1 <= len(counts) <= 2 * SEED_SPAN + 1
    assert all(c <= 32 for c in counts)


def test_candidate_plans_validation():
    with pytest.raises(TuningError):
        candidate_plans(12, 1024, NIAGARA)
    with pytest.raises(TuningError):
        candidate_plans(32, 1024, NIAGARA, counts=[64])
    with pytest.raises(TuningError):
        candidate_plans(32, 1024, NIAGARA, deltas=())
