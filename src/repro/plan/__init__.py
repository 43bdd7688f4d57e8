"""Communication-plan IR: typed ops, legalization, lowering.

See ``docs/PLAN_IR.md`` for the op reference and the one pass.
Quick tour::

    from repro.plan import leaf_plan, lower, parse

    p = leaf_plan(8, 2, delta=35e-6)
    print(p)                  # canonical text; p.digest is its identity
    q = parse(p.text)         # round-trips: q == p, q.digest == p.digest
    spec = lower(p)           # NativeSpec(FixedAggregation(8, 2, δ))
"""

from repro.plan.build import leaf_plan, module_plan
from repro.plan.ir import (
    OPS,
    Aggregate,
    Partition,
    Persist,
    Plan,
    PlanError,
    PlanOp,
    QPPool,
    plan,
)
from repro.plan.lower import lower
from repro.plan.mutate import neighbors
from repro.plan.parse import parse
from repro.plan.passes import Legalize, PassContext, lowering_pipeline

__all__ = [
    # ir
    "Plan", "PlanOp", "PlanError", "OPS", "plan",
    "Partition", "QPPool", "Aggregate", "Persist",
    # parse / build
    "parse", "leaf_plan", "module_plan",
    # passes
    "PassContext", "Legalize", "lowering_pipeline",
    # lower / mutate
    "lower", "neighbors",
]
