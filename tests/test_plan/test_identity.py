"""Plan identity in absolute terms.

A tuning-store key mixes in ``Plan.digest`` (through a policy's
``plan_space_digest``), so a printer or parser change that shifted every
digest consistently would orphan every stored entry while tests that only
compare digests against each other stayed green.  These values are
literals: they may change only with a deliberate store migration.
"""

import pytest

from repro.autotune import build_autotuner
from repro.config import NIAGARA
from repro.core import PlanChoice
from repro.plan import Persist, parse, plan
from repro.units import KiB

#: (n_transport, n_qps, delta) -> (text lines, digest).
LEAVES = {
    (1, 1, None): (
        ["partition(n=1)", "qp_pool(n=1)"], "69840c902855860a"),
    (8, 2, None): (
        ["partition(n=8)", "qp_pool(n=2)"], "aea5d95f1ac68735"),
    (32, 4, 3.5e-05): (
        ["partition(n=32)", "qp_pool(n=4)", "aggregate(delta=3.5e-05)"],
        "4f8940f36fd68187"),
    (4, 1, 0.0): (
        ["partition(n=4)", "qp_pool(n=1)", "aggregate(delta=0.0)"],
        "cdfd11f149168491"),
    (128, 16, 0.001): (
        ["partition(n=128)", "qp_pool(n=16)", "aggregate(delta=0.001)"],
        "45742aaae4a5f1e0"),
}
PERSIST = (["persist()"], "96ad5f68773da5ba")


def _text(lines):
    return "plan {\n" + "".join(f"  {line}\n" for line in lines) + "}"


@pytest.mark.parametrize("knobs", sorted(LEAVES, key=repr), ids=repr)
def test_leaf_text_and_digest(knobs):
    lines, digest = LEAVES[knobs]
    choice = PlanChoice(*knobs)
    p = choice.plan
    assert p.text == _text(lines)
    assert p.digest == digest
    assert parse(p.text) == p
    assert PlanChoice.from_plan(parse(p.text)) == choice


def test_persist_text_and_digest():
    lines, digest = PERSIST
    p = plan(Persist())
    assert p.text == _text(lines)
    assert p.digest == digest
    assert parse(p.text) == p


POLICIES = {
    "bandit": {"policy": "bandit"},
    "bandit_deltas": {"policy": "bandit", "counts": [1, 4, 16],
                      "deltas": [None, 3.5e-05]},
    "delta_tracker": {"policy": "delta_tracker", "delta": 3.5e-05},
    "static": {"policy": "static",
               "choice": {"n_transport": 8, "n_qps": 2, "delta": None}},
    "plan_mutation": {"policy": "plan_mutation"},
    "plan_mutation_seeded": {
        "policy": "plan_mutation", "deltas": [3.5e-05],
        "seed_plan": "plan { partition(n=4) qp_pool(n=2) }"},
}
WORKLOADS = ((16, 64 * KiB), (32, 4 * KiB))
#: policy -> plan_space_digest() at each of WORKLOADS.
PLAN_SPACES = {
    "bandit": ("ceaf8945feaf802f", "916810992f483c7b"),
    "bandit_deltas": ("4e7281ffdbfd359c", "7b1eae35a34fed69"),
    "delta_tracker": ("c6cd9989e4492112", "46b913dd449b3856"),
    "static": ("a7e2e6cc499e306a", "a7e2e6cc499e306a"),
    "plan_mutation": ("17a79c4ba8958271", "a57eb0c6201814f9"),
    "plan_mutation_seeded": ("fc61f9c6f5357cb6", "fc61f9c6f5357cb6"),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_policy_plan_space_digest(name):
    got = tuple(
        build_autotuner(POLICIES[name]).policy_builder(
            n_user, partition_size, NIAGARA).plan_space_digest()
        for n_user, partition_size in WORKLOADS)
    assert got == PLAN_SPACES[name]
