"""Lowering: plan IR → the ``ModuleSpec`` objects the engine consumes.

``lower()`` is deliberately thin.  It runs the legalize pipeline and
then pattern-matches the plan's leading op:

* ``fallback { rung {...} ... }``  → ``LadderSpec`` over the lowered
  rungs (the per-edge degradation ladder);
* ``persist()`` / ``channel()``    → the corresponding baseline spec;
* ``native()``                     → error: the placeholder must be
  substituted (see :func:`repro.plan.build.substitute_native`)
  before lowering;
* otherwise ``partition(n)`` [+ ``qp_pool`` + ``aggregate``] →
  ``NativeSpec(FixedAggregation(n, qps, δ))``.

Emitting the *existing* ``FixedAggregation`` class — not a parallel
implementation — is what makes the golden guarantee definitional:
lowering the plan for a static choice constructs exactly the object
the benchmarks always constructed, so timing is bit-identical
(``tests/test_plan/test_lowering.py`` and the golden suite both
check this).

``stripe``/``tree``/``send`` ops are annotations for other layers
(the rail scheduler reads ``NICConfig.n_ports``, collectives own the
tree shape, sends are the analysis form) and lower to nothing here.

Imports of the module-spec classes are deferred into the functions:
``repro.plan`` must stay importable from every layer without pulling
the transport stack (and its import cycles) in at module scope.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.config import ClusterConfig
from repro.plan.ir import (
    Channel,
    Fallback,
    Native,
    Partition,
    Persist,
    Plan,
    PlanError,
)
from repro.plan.passes import PassContext, lowering_pipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.modules import ModuleSpec


def lower(plan: Plan, config: Optional[ClusterConfig] = None,
          n_user: Optional[int] = None,
          partition_size: Optional[int] = None) -> "ModuleSpec":
    """Legalize ``plan`` and emit the module spec it describes."""
    ctx = PassContext(config=config, n_user=n_user,
                      partition_size=partition_size)
    return _emit(lowering_pipeline().run(plan, ctx))


def _emit(plan: Plan) -> "ModuleSpec":
    if not plan.ops:
        raise PlanError("cannot lower an empty plan")
    head = plan.ops[0]

    if isinstance(head, Fallback):
        from repro.mpi.ladder import LadderSpec

        return LadderSpec([_emit(rung) for rung in head.rungs])

    if isinstance(head, Persist):
        from repro.mpi.persist_module import PersistSpec

        return PersistSpec()

    if isinstance(head, Channel):
        from repro.mpi.channel_module import ChannelSpec

        return ChannelSpec()

    if isinstance(head, Native):
        raise PlanError(
            "cannot lower a native() placeholder — substitute the "
            "preferred transport first (repro.plan.build."
            "substitute_native)")

    if plan.first(Partition) is None:
        raise PlanError(
            f"cannot lower plan starting with {head.name!r}: "
            f"expected fallback/persist/channel or a partition(n) leaf")

    from repro.core.aggregators import FixedAggregation, PlanChoice
    from repro.core.module import NativeSpec

    choice = PlanChoice.from_plan(plan)
    return NativeSpec(FixedAggregation(
        choice.n_transport, choice.n_qps, timer_delta=choice.delta,
        scatter_gather=choice.scatter_gather))


def lower_edges(plan: Plan, config: Optional[ClusterConfig] = None,
                n_user: Optional[int] = None,
                partition_size: Optional[int] = None,
                ) -> Callable[[int], "ModuleSpec"]:
    """Lower a multi-edge plan into a ``neighbor -> ModuleSpec`` map.

    Top-level ``edge(neighbor=k) { ... }`` bodies lower per neighbor;
    the remaining top-level ops form the default body any other
    neighbor resolves to.  Specs are memoized by body digest, so
    edges sharing a subtree (after
    :class:`~repro.plan.passes.HoistCommonSubtrees`, or simply by
    being written identically) share one spec object.
    """
    ctx = PassContext(config=config, n_user=n_user,
                      partition_size=partition_size)
    legal = lowering_pipeline().run(plan, ctx)
    cache: dict[str, "ModuleSpec"] = {}

    def _lower_body(body: Plan) -> "ModuleSpec":
        spec = cache.get(body.digest)
        if spec is None:
            spec = cache[body.digest] = _emit(body)
        return spec

    per_edge = {neighbor: _lower_body(body)
                for neighbor, body in legal.edges().items()}
    default = legal.default_body()

    def resolve(neighbor: int) -> "ModuleSpec":
        spec = per_edge.get(neighbor)
        if spec is not None:
            return spec
        if default is None:
            raise PlanError(
                f"plan has no edge for neighbor {neighbor} and no "
                f"default body")
        return _lower_body(default)

    return resolve
