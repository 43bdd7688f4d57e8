"""PlanMutationPolicy: IR-native search that rides the controller."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.autotune import PlanChoice, PlanMutationPolicy
from repro.autotune.observe import IterationObservation
from repro.bench.autotune import run_autotuned_pair
from repro.config import NIAGARA
from repro.errors import ConfigError
from repro.plan import Persist, leaf_plan, parse, plan

N_USER = 16
TOTAL = 1 << 20


def _obs(t: float, rnd: int = 0) -> IterationObservation:
    return IterationObservation(round=rnd, completion_time=t,
                                pready_times=(0.0,))


def _policy(**kwargs) -> PlanMutationPolicy:
    defaults = dict(n_user=N_USER, config=NIAGARA, seed=0)
    defaults.update(kwargs)
    return PlanMutationPolicy(leaf_plan(4, 2), **defaults)


@given(n_transport=st.integers(0, 16).map(lambda e: 1 << e),
       n_qps=st.integers(1, 4096),
       delta=st.none() | st.floats(min_value=0.0, allow_nan=False,
                                   allow_infinity=False),
       sg=st.booleans())
def test_choice_and_leaf_plan_are_one_value(n_transport, n_qps, delta, sg):
    """Every legal (transport partitions, QPs, δ, sg) survives
    choice -> plan -> text -> plan -> choice, digest unchanged."""
    choice = PlanChoice(n_transport, n_qps, delta, scatter_gather=sg)
    reparsed = parse(choice.plan.text)
    assert PlanChoice.from_plan(reparsed) == choice
    assert reparsed.digest == choice.plan.digest


def test_from_plan_rejects_non_leaf_plans():
    with pytest.raises(ConfigError):
        PlanChoice.from_plan(plan(Persist()))


def test_frontier_starts_with_seed_and_provisioning_envelope():
    policy = _policy()
    frontier = policy.frontier()
    assert frontier[0] == leaf_plan(4, 2)
    choices = policy.candidates()
    # The envelope covers the widest reachable layout, so the
    # aggregator provisions QPs once for the whole walk.
    assert max(c.n_transport for c in choices) == 16
    assert max(c.n_qps for c in choices) == policy.qp_cap


def test_unplayed_frontier_is_swept_before_exploitation():
    policy = _policy()
    seen = []
    for rnd in range(len(policy.frontier())):
        choice = policy.choose(rnd)
        seen.append(choice.plan.digest)
        policy.observe(choice, _obs(1.0 + rnd, rnd), None)
    assert seen == [p.digest for p in policy.frontier()[:len(seen)]]


def test_expansion_grows_frontier_around_the_incumbent():
    policy = _policy(expand_after=2)
    before = len(policy.frontier())
    for rnd in range(8):
        choice = policy.choose(rnd)
        # Plant plan (4, 2) as the winner.
        cost = 0.5 if choice == PlanChoice(4, 2) else 2.0
        policy.observe(choice, _obs(cost, rnd), None)
    assert len(policy.frontier()) > before
    assert policy.best() == PlanChoice(4, 2)


def test_converges_to_planted_optimum_and_reports_confident():
    policy = _policy(expand_after=2)
    target = PlanChoice(8, 2)
    for rnd in range(60):
        choice = policy.choose(rnd)
        cost = 0.1 if choice == target else 1.0
        policy.observe(choice, _obs(cost, rnd), None)
        if policy.confident:
            break
    assert policy.confident
    assert policy.best() == target
    assert policy.describe().startswith("plan-mutation(")


def test_foreign_choice_is_ignored_not_credited():
    policy = _policy()
    policy.observe(PlanChoice(1, 1), _obs(0.01), None)  # not in frontier
    assert all(policy.mean_cost(c) is None for c in policy.candidates())


def test_plan_space_digest_identifies_the_search_space():
    base = _policy()
    assert base.plan_space_digest() == _policy().plan_space_digest()
    assert base.plan_space_digest() != \
        _policy(deltas=(3.5e-05,)).plan_space_digest()
    assert base.plan_space_digest() != \
        _policy(qp_cap=1).plan_space_digest()
    other_seed = PlanMutationPolicy(leaf_plan(8, 2), n_user=N_USER,
                                    config=NIAGARA)
    assert base.plan_space_digest() != other_seed.plan_space_digest()


def test_parameter_validation():
    for bad in (dict(epsilon=1.5), dict(decay=0.0), dict(expand_after=0),
                dict(max_frontier=1)):
        with pytest.raises(ConfigError):
            _policy(**bad)


def test_plan_mutation_matches_or_beats_bandit_end_to_end():
    """The ISSUE acceptance check, at unit scale: on the same
    workload, the mutation walk's converged plan is at least as good
    as the grid bandit's."""
    iters = dict(iterations=40, warmup=2)
    bandit = run_autotuned_pair(
        {"policy": "bandit", "counts": [1, 4, 16], "bandit_seed": 1},
        n_user=N_USER, total_bytes=TOTAL, **iters)
    mutation = run_autotuned_pair(
        {"policy": "plan_mutation", "bandit_seed": 1},
        n_user=N_USER, total_bytes=TOTAL, **iters)
    assert mutation.explored
    assert mutation.best_plan_time <= bandit.best_plan_time * (1 + 1e-9)
