"""Legalize invariants: idempotence, identity on legal plans, clamping."""

import random

import pytest

from repro.config import NIAGARA
from repro.ib.constants import MAX_QPS
from repro.plan import (
    Aggregate,
    Legalize,
    Partition,
    PassContext,
    Persist,
    Plan,
    QPPool,
    leaf_plan,
    lowering_pipeline,
    plan,
)

PASSES = (Legalize(),)


def _random_plan(rng: random.Random) -> Plan:
    """A random leaf plan with illegal knobs (property-test input)."""
    ops = [Partition(n=rng.choice([1, 2, 3, 4, 8, 12, 32])),
           QPPool(n=rng.choice([1, 2, 4, 64]))]
    if rng.random() < 0.5:
        ops.append(Aggregate(delta=rng.choice([None, 3.5e-05])))
    rng.shuffle(ops)
    return Plan(tuple(ops))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("p", PASSES, ids=lambda p: type(p).__name__.lower())
def test_every_pass_is_idempotent(p, seed):
    rng = random.Random(1000 + seed)
    ctx = PassContext(config=NIAGARA, n_user=8, partition_size=1 << 13)
    once = p.run(_random_plan(rng), ctx)
    assert p.run(once, ctx).digest == once.digest


@pytest.mark.parametrize("seed", range(4))
def test_legalize_keeps_every_op(seed):
    before = _random_plan(random.Random(seed))
    after = Legalize().run(before, PassContext(config=NIAGARA))
    assert [op.name for op in after.ops] == [op.name for op in before.ops]


def test_legalize_is_identity_on_legal_plans():
    ctx = PassContext(config=NIAGARA)
    for p in (leaf_plan(8, 2), leaf_plan(1, 1, delta=3.5e-05),
              plan(Persist())):
        assert Legalize().run(p, ctx).digest == p.digest


def test_legalize_clamps_illegal_knobs():
    ctx = PassContext(config=NIAGARA)
    out = Legalize().run(plan(Partition(n=12), QPPool(n=64)), ctx)
    assert out.first(Partition).n == 8  # round down to a power of two
    assert out.first(QPPool).n <= min(8, MAX_QPS)


def test_lowering_pipeline_is_legalize_only():
    # The context perfbench's plan probe builds; the probe's call
    # shape is why PassContext keeps n_user and partition_size.
    ctx = PassContext(config=NIAGARA, n_user=32, partition_size=1 << 16)
    pipe = lowering_pipeline()
    assert isinstance(pipe, Legalize)
    p = plan(Partition(n=12), QPPool(n=2))
    assert pipe.run(p, ctx) == Legalize().run(p, ctx)
