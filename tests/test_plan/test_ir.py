"""IR identity: print → parse → print is a fixed point for every op."""

import pytest

from repro.plan import (
    OPS,
    Aggregate,
    Channel,
    Edge,
    Fallback,
    Native,
    Partition,
    Persist,
    PlanError,
    QPPool,
    Send,
    Stripe,
    Tree,
    parse,
    plan,
)

#: One representative plan per op, non-default attrs everywhere.
OP_PLANS = {
    "partition": plan(Partition(n=8)),
    "qp_pool": plan(QPPool(n=2)),
    "aggregate": plan(Aggregate(delta=3.5e-05, sg=True)),
    "stripe": plan(Stripe(rails=2)),
    "tree": plan(Tree(kind="knomial", root=3)),
    "persist": plan(Persist()),
    "channel": plan(Channel()),
    "native": plan(Native(strategy="ploggp")),
    "send": plan(Send(offset=4096, nbytes=65536)),
    "edge": plan(Edge(neighbor=1, body=plan(Persist()))),
    "fallback": plan(Fallback(rungs=(
        plan(Partition(n=4), QPPool(n=2)),
        plan(Persist()),
        plan(Channel()),
    ))),
}

NESTED = plan(
    Partition(n=8),
    QPPool(n=2),
    Aggregate(delta=3.5e-05),
    Stripe(rails=2),
    Edge(neighbor=1, body=plan(Partition(n=4), QPPool(n=1))),
    Edge(neighbor=2, body=plan(Fallback(rungs=(
        plan(Native(strategy="ploggp")),
        plan(Persist()),
        plan(Channel()),
    )))),
)


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


def test_round_trip_nested_plan():
    q = parse(NESTED.text)
    assert q == NESTED
    assert q.digest == NESTED.digest


def test_default_attrs_are_not_printed():
    assert plan(Tree()).text == "plan {\n  tree()\n}"
    assert plan(Aggregate()).text == "plan {\n  aggregate()\n}"
    assert plan(Native()).text == "plan {\n  native()\n}"
    assert "sg" not in plan(Aggregate(delta=1e-6)).text


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


def test_op_validation():
    with pytest.raises(PlanError):
        plan(Partition(n=0))
    with pytest.raises(PlanError):
        plan(QPPool(n=-1))
    with pytest.raises(PlanError):
        plan(Send(offset=0, nbytes=0))
    with pytest.raises(PlanError):
        plan(Aggregate(delta=-1.0))
    with pytest.raises(PlanError):
        plan(Fallback(rungs=()))


def test_edges_and_default_body():
    edges = NESTED.edges()
    assert set(edges) == {1, 2}
    assert edges[1].first(Partition).n == 4
    default = NESTED.default_body()
    assert default is not None
    assert default.first(Partition).n == 8
    assert not default.find(Edge)
    with pytest.raises(PlanError):
        plan(Edge(neighbor=1, body=plan(Persist())),
             Edge(neighbor=1, body=plan(Channel()))).edges()


def test_payload_bytes_and_walk():
    p = plan(Send(offset=0, nbytes=100), Send(offset=100, nbytes=28))
    assert p.payload_bytes() == 128
    names = [op.name for op in NESTED.walk()]
    assert names.count("edge") == 2
    assert "fallback" in names and "native" in names
