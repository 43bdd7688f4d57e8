"""Lowering: plans emit the existing specs, timing stays bit-identical."""

import pytest

from repro.autotune import build_autotuner
from repro.bench.pair import run_partitioned_pair
from repro.config import NIAGARA
from repro.core import FixedAggregation, PLogGPAggregator, PlanChoice
from repro.core.module import NativeSpec
from repro.ib.constants import MAX_QPS
from repro.model.tables import NIAGARA_LOGGP
from repro.mpi.persist_module import PersistSpec
from repro.plan import (
    Partition,
    Persist,
    Plan,
    PlanError,
    QPPool,
    leaf_plan,
    lower,
    module_plan,
    parse,
    plan,
)

N_USER = 16
TOTAL = 1 << 20
ITER = dict(iterations=6, warmup=2)

#: Plans whose ops contradict each other: each op kind at most once, and
#: ``persist()`` only on its own.
MALFORMED = [
    "plan { partition(n=8) persist() }",
    "plan { persist() partition(n=8) }",
    "plan { partition(n=8) partition(n=2) }",
    "plan { partition(n=8) qp_pool(n=2) qp_pool(n=4) }",
    "plan { partition(n=8) aggregate() aggregate(delta=1e-05) }",
    "plan { persist() persist() }",
]


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


def test_lower_persist_baseline():
    assert isinstance(lower(plan(Persist())), PersistSpec)
    assert isinstance(lower(parse("plan { persist() }")), PersistSpec)


def test_lower_rejects_empty_and_partitionless_plans():
    with pytest.raises(PlanError):
        lower(Plan(()))
    with pytest.raises(PlanError):
        lower(plan(QPPool(n=2)))


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_plan_is_rejected_not_lowered(text):
    with pytest.raises(PlanError):
        lower(parse(text))


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_seed_plan_is_rejected(text):
    agg = build_autotuner({"policy": "plan_mutation", "seed_plan": text})
    with pytest.raises(PlanError):
        agg.plan(N_USER, TOTAL // N_USER, NIAGARA)


def test_module_plan_covers_the_coll_module_vocabulary():
    config = NIAGARA
    assert module_plan(None, N_USER, TOTAL // N_USER, config) == \
        plan(Persist())
    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=4e-3)
    p = module_plan(agg, N_USER, TOTAL // N_USER, config)
    resolved = agg.plan(N_USER, TOTAL // N_USER, config)
    assert p == resolved.plan
    assert p.first(Partition).n == resolved.n_transport
    with pytest.raises(PlanError):
        module_plan(NativeSpec(agg), N_USER, TOTAL // N_USER, config)


def test_legalization_happens_before_emission():
    spec = lower(leaf_plan(12, 64))
    choice = spec.aggregator.choice
    assert choice.n_transport == 8  # rounded down to a power of two
    assert choice.n_qps <= min(8, MAX_QPS)
