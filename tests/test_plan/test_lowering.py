"""Lowering: plans emit the existing specs, timing stays bit-identical."""

import pytest

from repro.bench.pair import run_partitioned_pair
from repro.config import NIAGARA
from repro.core import FixedAggregation, PLogGPAggregator, PlanChoice
from repro.core.module import NativeSpec
from repro.model.tables import NIAGARA_LOGGP
from repro.mpi.channel_module import ChannelSpec
from repro.mpi.ladder import LadderSpec
from repro.mpi.persist_module import PersistSpec
from repro.plan import (
    Channel,
    Fallback,
    Native,
    Persist,
    Plan,
    PlanError,
    default_ladder_plan,
    leaf_plan,
    lower,
    lower_edges,
    module_plan,
    parse,
    plan,
    spec_to_plan,
)

N_USER = 16
TOTAL = 1 << 20
ITER = dict(iterations=6, warmup=2)


def _ladder(n_transport: int, n_qps: int) -> Plan:
    """The default ladder with a leaf plan in its ``native()`` slot."""
    return parse(f"""plan {{ fallback {{
        rung {{ partition(n={n_transport}) qp_pool(n={n_qps}) }}
        rung {{ persist() }}
        rung {{ channel() }}
    }} }}""")


def test_lowered_leaf_plan_matches_fixed_aggregation_bit_for_bit():
    """The golden guarantee: lowering constructs the exact aggregator
    the benchmarks always constructed, so timing is bit-identical."""
    baseline = run_partitioned_pair(
        lambda: NativeSpec(FixedAggregation(8, 2)),
        n_user=N_USER, partition_size=TOTAL // N_USER, **ITER)
    lowered = run_partitioned_pair(
        lambda: lower(leaf_plan(8, 2)),
        n_user=N_USER, partition_size=TOTAL // N_USER, **ITER)
    assert lowered.mean_time.hex() == baseline.mean_time.hex()
    assert lowered.wrs_posted == baseline.wrs_posted


def test_lower_leaf_with_delta_and_sg():
    spec = lower(leaf_plan(8, 2, delta=3.5e-05, scatter_gather=True))
    agg = spec.aggregator
    assert isinstance(agg, FixedAggregation)
    assert agg.choice == PlanChoice(8, 2, delta=3.5e-05,
                                    scatter_gather=True)


def test_lower_baselines_and_ladder():
    assert isinstance(lower(plan(Persist())), PersistSpec)
    assert isinstance(lower(plan(Channel())), ChannelSpec)
    ladder = _ladder(4, 2)
    default = default_ladder_plan()
    assert ladder.first(Fallback).rungs[1:] == \
        default.first(Fallback).rungs[1:]
    spec = lower(ladder)
    assert isinstance(spec, LadderSpec)
    assert [r.name for r in spec.rungs] == [
        "native_verbs", "part_persist", "channels"]


def test_lower_rejects_native_placeholder_and_empty_plan():
    with pytest.raises(PlanError):
        lower(plan(Native()))
    with pytest.raises(PlanError):
        lower(Plan(()))


def test_spec_to_plan_round_trips_lowered_plans():
    for p in (leaf_plan(8, 2), leaf_plan(4, 1, delta=1e-5),
              plan(Persist()), plan(Channel()),
              _ladder(4, 2)):
        assert spec_to_plan(lower(p)) == p


def test_ladder_spec_plan_expresses_rungs_as_fallback_legs():
    spec = LadderSpec([NativeSpec(FixedAggregation(8, 2)),
                       PersistSpec(), ChannelSpec()])
    p = spec.plan()
    assert p == _ladder(8, 2)
    assert spec_to_plan(lower(p)) == p


def test_lower_edges_memoizes_and_falls_back_to_default():
    from repro.plan import Edge

    p = Plan((
        leaf_plan(8, 2).ops[0], leaf_plan(8, 2).ops[1],
        Edge(neighbor=1, body=leaf_plan(4, 2)),
        Edge(neighbor=2, body=leaf_plan(4, 2)),
    ))
    resolve = lower_edges(p)
    assert resolve(1) is resolve(2)  # digest-memoized shared spec
    default = resolve(99)
    assert default.aggregator.choice.n_transport == 8
    assert resolve(98) is default


def test_lower_edges_without_default_rejects_unknown_neighbor():
    from repro.plan import Edge

    p = Plan((Edge(neighbor=1, body=leaf_plan(4, 2)),))
    resolve = lower_edges(p)
    assert resolve(1).aggregator.choice.n_transport == 4
    with pytest.raises(PlanError):
        resolve(2)


def test_module_plan_covers_the_coll_module_vocabulary():
    config = NIAGARA
    assert module_plan(None, N_USER, TOTAL // N_USER, config) == \
        plan(Persist())
    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=4e-3)
    p = module_plan(agg, N_USER, TOTAL // N_USER, config)
    resolved = agg.plan(N_USER, TOTAL // N_USER, config)
    assert p.first(type(leaf_plan(1, 1).ops[0])).n == resolved.n_transport
    spec = NativeSpec(FixedAggregation(4, 2))
    assert module_plan(spec, N_USER, TOTAL // N_USER, config) == \
        leaf_plan(4, 2)


def test_legalization_happens_before_emission():
    spec = lower(leaf_plan(12, 64))
    choice = spec.aggregator.choice
    assert choice.n_transport == 8  # rounded down to a power of two
    assert choice.n_qps <= min(8, NIAGARA.nic.max_qps)
