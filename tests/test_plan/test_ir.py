"""IR identity: print → parse → print is a fixed point for every op."""

import pytest

from repro.plan import (
    OPS,
    Aggregate,
    Partition,
    Persist,
    PlanError,
    QPPool,
    parse,
    plan,
)

#: One representative plan per op, non-default attrs everywhere.
OP_PLANS = {
    "partition": plan(Partition(n=8)),
    "qp_pool": plan(QPPool(n=2)),
    "aggregate": plan(Aggregate(delta=3.5e-05)),
    "persist": plan(Persist()),
}


def test_every_registered_op_is_covered():
    assert set(OP_PLANS) == set(OPS)


@pytest.mark.parametrize("name", sorted(OP_PLANS))
def test_round_trip_is_fixed_point_per_op(name):
    p = OP_PLANS[name]
    q = parse(p.text)
    assert q == p
    assert q.text == p.text
    assert q.digest == p.digest
    # And once more: parsing the printed form is idempotent.
    assert parse(q.text) == q


def test_default_attrs_are_not_printed():
    assert plan(Aggregate()).text == "plan {\n  aggregate()\n}"
    assert plan(Persist()).text == "plan {\n  persist()\n}"


def test_digest_is_structural_identity():
    a = plan(Partition(n=8), QPPool(n=2))
    b = plan(Partition(n=8), QPPool(n=2))
    c = plan(Partition(n=4), QPPool(n=2))
    assert a is not b and a.digest == b.digest
    assert a.digest != c.digest
    # Op order is significant: a plan is an ordered sequence.
    assert plan(QPPool(n=2), Partition(n=8)).digest != a.digest


def test_digest_stable_across_parse():
    for p in OP_PLANS.values():
        assert parse(p.text).digest == p.digest


def test_parse_rejects_garbage():
    with pytest.raises(PlanError):
        parse("plan { partition(n=) }")
    with pytest.raises(PlanError):
        parse("plan { unknown_op() }")
    with pytest.raises(PlanError):
        parse("partition(n=8)")  # missing plan { } wrapper
    with pytest.raises(PlanError):
        parse("plan { partition(n=8)")  # unclosed block
    with pytest.raises(PlanError):
        parse("plan { partition(n=eight) }")  # bare names are not values
    with pytest.raises(PlanError):
        parse("plan { persist { partition(n=8) } }")  # no nested blocks


def test_op_validation():
    with pytest.raises(PlanError):
        plan(Partition(n=0))
    with pytest.raises(PlanError):
        plan(QPPool(n=-1))
    with pytest.raises(PlanError):
        plan(Aggregate(delta=-1.0))
    with pytest.raises(PlanError):
        plan(Partition(n=8), Partition(n=2))
    with pytest.raises(PlanError):
        plan(Partition(n=8), Persist())
