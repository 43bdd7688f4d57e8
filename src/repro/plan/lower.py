"""Lowering: plan IR → the ``ModuleSpec`` the engine consumes.

``lower()`` is deliberately thin.  It runs ``Legalize`` and then
emits one of two specs:

* ``persist()`` → ``PersistSpec``, the ``part_persist`` baseline;
* ``partition(n)`` [+ ``qp_pool`` + ``aggregate``] →
  ``NativeSpec(FixedAggregation(n, qps, δ))``.

Emitting the *existing* ``FixedAggregation`` class — not a parallel
implementation — is what makes the golden guarantee definitional:
lowering the plan for a static choice constructs exactly the object
the benchmarks always constructed, so timing is bit-identical
(``tests/test_plan/test_lowering.py`` and the golden suite both
check this).

Imports of the module-spec classes are deferred into the function:
``repro.plan`` must stay importable from every layer without pulling
the transport stack (and its import cycles) in at module scope.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.plan.ir import Partition, Persist, Plan, PlanError
from repro.plan.passes import PassContext, lowering_pipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.modules import ModuleSpec


def lower(plan: Plan) -> "ModuleSpec":
    """Legalize ``plan`` and emit the module spec it describes."""
    plan = lowering_pipeline().run(plan, PassContext())
    if plan.first(Persist) is not None:
        from repro.mpi.persist_module import PersistSpec

        return PersistSpec()
    if plan.first(Partition) is None:
        raise PlanError(
            f"cannot lower {plan.text!r}: expected persist() or a "
            f"partition(n) leaf")

    from repro.core.aggregators import FixedAggregation, PlanChoice
    from repro.core.module import NativeSpec

    choice = PlanChoice.from_plan(plan)
    return NativeSpec(FixedAggregation(
        choice.n_transport, choice.n_qps, timer_delta=choice.delta))
