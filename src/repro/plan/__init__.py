"""Communication-plan IR: typed ops, rewrite passes, lowering.

See ``docs/PLAN_IR.md`` for the op reference, the pass pipeline, and
the add-a-pass walkthrough.  Quick tour::

    from repro.plan import leaf_plan, lower, parse

    p = leaf_plan(8, 2, delta=35e-6)
    print(p)                  # canonical text; p.digest is its identity
    q = parse(p.text)         # round-trips: q == p, q.digest == p.digest
    spec = lower(p, config)   # NativeSpec(FixedAggregation(8, 2, δ))
"""

from repro.plan.build import (
    default_ladder_plan,
    leaf_plan,
    module_plan,
    spec_to_plan,
    substitute_native,
)
from repro.plan.ir import (
    OPS,
    Aggregate,
    Channel,
    Edge,
    Fallback,
    Native,
    Partition,
    Persist,
    Plan,
    PlanError,
    PlanOp,
    QPPool,
    Send,
    Stripe,
    Tree,
    plan,
)
from repro.plan.lower import lower, lower_edges
from repro.plan.mutate import neighbors
from repro.plan.parse import parse
from repro.plan.passes import (
    MAX_WR_BYTES,
    FuseAdjacentSends,
    HoistCommonSubtrees,
    Legalize,
    MaterializeSends,
    PassContext,
    PassPipeline,
    RewritePass,
    SplitOversizedWRs,
    analysis_pipeline,
    lowering_pipeline,
    rewrite_plans,
)

__all__ = [
    # ir
    "Plan", "PlanOp", "PlanError", "OPS", "plan",
    "Partition", "QPPool", "Aggregate", "Stripe", "Tree",
    "Persist", "Channel", "Native", "Send", "Edge", "Fallback",
    # parse / build
    "parse", "leaf_plan", "default_ladder_plan", "substitute_native",
    "spec_to_plan", "module_plan",
    # passes
    "PassContext", "PassPipeline", "RewritePass", "rewrite_plans",
    "Legalize", "MaterializeSends", "SplitOversizedWRs",
    "FuseAdjacentSends", "HoistCommonSubtrees",
    "lowering_pipeline", "analysis_pipeline", "MAX_WR_BYTES",
    # lower / mutate
    "lower", "lower_edges", "neighbors",
]
