"""Constructors bridging the existing decision objects and the IR.

Everything here is a pure translation: the three knobs or a
``ModuleSpec`` tree in; a :class:`Plan` out.  The leaf form is one
value with two spellings — ``PlanChoice.plan`` / ``PlanChoice.from_plan``
(:mod:`repro.core.aggregators`) are inverses — and
``spec_to_plan(lower(p)) == p`` for lowered leaf plans, so the IR can
wrap the current system without changing any decision.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config import ClusterConfig
from repro.plan.ir import (
    Aggregate,
    Channel,
    Fallback,
    Native,
    Partition,
    Persist,
    Plan,
    PlanError,
    QPPool,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregators import Aggregator
    from repro.mpi.modules import ModuleSpec


def leaf_plan(n_transport: int, n_qps: int,
              delta: Optional[float] = None,
              scatter_gather: bool = False) -> Plan:
    """The 3-knob plan: ``partition`` + ``qp_pool`` [+ ``aggregate``]."""
    ops = [Partition(n=n_transport), QPPool(n=n_qps)]
    if delta is not None or scatter_gather:
        ops.append(Aggregate(delta=delta, sg=scatter_gather))
    return Plan(tuple(ops))


def default_ladder_plan(strategy: Optional[str] = None) -> Plan:
    """The canonical degradation ladder as one ``fallback`` plan.

    ``native() -> persist() -> channel()`` — the exact rung chain
    ``repro.coll.plans.ladder_modules`` has always built; the
    ``native()`` slot is the caller's preferred transport
    (:func:`substitute_native`).
    """
    return Plan((Fallback(rungs=(
        Plan((Native(strategy=strategy),)),
        Plan((Persist(),)),
        Plan((Channel(),)),
    )),))


def substitute_native(plan: Plan, replacement: Plan) -> Plan:
    """Replace every ``native()`` slot with ``replacement``'s ops.

    A rung that becomes identical to an existing sibling rung after
    substitution is dropped (substituting ``persist()`` into the
    default ladder yields ``persist -> channel``, not
    ``persist -> persist -> channel`` — matching what
    ``ladder_modules`` always did for a persist top rung).
    """
    from repro.plan.passes import rewrite_plans

    def _sub(p: Plan) -> Plan:
        ops = []
        for op in p.ops:
            if isinstance(op, Native):
                ops.extend(replacement.ops)
            elif isinstance(op, Fallback):
                rungs = []
                digests = set()
                for rung in op.rungs:
                    if rung.digest in digests:
                        continue
                    digests.add(rung.digest)
                    rungs.append(rung)
                ops.append(Fallback(rungs=tuple(rungs)))
            else:
                ops.append(op)
        return Plan(tuple(ops))

    return rewrite_plans(plan, _sub)


def spec_to_plan(spec: "ModuleSpec") -> Plan:
    """Recover the plan a ``ModuleSpec`` tree describes.

    ``NativeSpec`` over a ``FixedAggregation`` round-trips exactly;
    any other aggregator renders as a ``native(strategy=...)``
    placeholder — its knobs are not static, so the plan records the
    strategy instead (use :func:`module_plan` with a workload to
    resolve them).
    """
    from repro.core.aggregators import FixedAggregation
    from repro.core.module import NativeSpec
    from repro.mpi.channel_module import ChannelSpec
    from repro.mpi.ladder import LadderSpec
    from repro.mpi.persist_module import PersistSpec

    if isinstance(spec, LadderSpec):
        return Plan((Fallback(rungs=tuple(
            spec_to_plan(rung) for rung in spec.rungs)),))
    if isinstance(spec, PersistSpec):
        return Plan((Persist(),))
    if isinstance(spec, ChannelSpec):
        return Plan((Channel(),))
    if isinstance(spec, NativeSpec):
        agg = spec.aggregator
        if isinstance(agg, FixedAggregation):
            return agg.choice.plan
        return Plan((Native(strategy=_strategy_name(agg)),))
    raise PlanError(f"no plan form for module spec {spec.name!r}")


def _strategy_name(aggregator: "Aggregator") -> str:
    name = type(aggregator).__name__
    for suffix in ("Aggregator", "Aggregation"):
        name = name.removesuffix(suffix)
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append("_")
        out.append(ch.lower())
    return "".join(out) or "native"


def module_plan(module, n_user: int, partition_size: int,
                config: ClusterConfig) -> Plan:
    """Resolve a module descriptor's plan for one workload.

    ``module`` follows the ``repro.coll`` convention: ``None`` means
    the persist baseline, an ``Aggregator`` is asked for its
    ``PlanChoice`` at this workload, and a ``ModuleSpec``
    recovers through :func:`spec_to_plan`.
    """
    from repro.core.aggregators import Aggregator
    from repro.mpi.modules import ModuleSpec

    if module is None:
        return Plan((Persist(),))
    if isinstance(module, Aggregator):
        return module.plan(n_user, partition_size, config).plan
    if isinstance(module, ModuleSpec):
        return spec_to_plan(module)
    raise PlanError(f"cannot derive a plan from {module!r}")
