"""Per-edge transport-plan resolution, lowered through the plan IR.

Every edge of a partitioned collective is its own matched pair, so
every edge can run its own aggregation plan.  :func:`edge_modules`
normalizes the ``module_for`` argument the collective inits accept —
anything from "one baseline everywhere" to "a fresh closed-loop
autotuner per neighbor" — into one canonical shape::

    resolve(neighbor_rank) -> ModuleSpec        # fresh per edge

Accepted inputs:

* ``None`` — the ``part_persist`` baseline on every edge;
* a :class:`repro.plan.Plan` — lowered through
  :func:`repro.plan.lower`; a plan with top-level ``edge`` ops
  resolves per neighbor (non-edge ops are the default body);
* an :class:`~repro.core.aggregators.Aggregator` — the native module
  with that (shared) aggregator on every edge; static aggregators are
  stateless so sharing is safe, and each matched pair still computes
  its own plan at its own message size;
* a :class:`~repro.mpi.modules.ModuleSpec` or zero-argument spec
  factory — reused/invoked for every edge;
* a one-argument callable ``f(neighbor)`` returning any of the above
  — full per-edge control (:func:`per_edge_autotuners` builds the
  common case: one independent autotune controller per neighbor).

Since the plan-IR refactor, the canonical degradation ladder is not
hand-assembled here: :func:`ladder_modules` instantiates
:func:`repro.plan.default_ladder_plan` and substitutes the preferred
transport into the ``native()`` slot, so ``repro-bench plan show``
prints exactly the ladder the collective will run.
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from repro.core.aggregators import Aggregator
from repro.mpi.modules import ModuleSpec

#: Canonical resolver: neighbor rank -> module spec for that edge.
EdgeModules = Callable[[int], ModuleSpec]


def spec_for(module) -> ModuleSpec:
    """One concrete ModuleSpec from a plan/aggregator/spec/factory/None
    (the resolver behind every driver's ``module`` argument)."""
    if module is None:
        from repro.mpi.persist_module import PersistSpec

        return PersistSpec()
    if isinstance(module, Aggregator):
        from repro.core.module import NativeSpec

        return NativeSpec(module)
    if isinstance(module, ModuleSpec):
        return module
    # Only plans and factories get this far, so the drivers' common
    # inputs never import the plan IR.
    from repro.plan import Plan, lower

    if isinstance(module, Plan):
        return lower(module)
    if callable(module):
        return spec_for(module())
    raise TypeError(
        f"cannot resolve {module!r} into a partitioned transport module")


def _takes_neighbor(fn) -> bool:
    """Whether ``fn`` is a per-neighbor resolver (one positional arg)."""
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return False
    positional = [p for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                  and p.default is p.empty]
    return len(positional) == 1


def edge_modules(module_for) -> EdgeModules:
    """Normalize ``module_for`` into a per-neighbor spec resolver."""
    from repro.plan import Edge, Plan, lower_edges

    if isinstance(module_for, Plan) and module_for.find(Edge):
        return lower_edges(module_for)
    if (callable(module_for) and not isinstance(module_for, Aggregator)
            and not isinstance(module_for, (ModuleSpec, Plan))
            and _takes_neighbor(module_for)):
        return lambda neighbor: spec_for(module_for(neighbor))
    return lambda neighbor: spec_for(module_for)


def ladder_modules(module_for=None, rungs=None) -> EdgeModules:
    """Wrap every edge's transport in a graceful-degradation ladder.

    ``module_for`` (any shape :func:`edge_modules` accepts) names the
    preferred rung, substituted into the ``native()`` slot of
    :func:`repro.plan.default_ladder_plan` — so a tripped edge
    degrades native → persist → channels, and a rung that would
    duplicate an earlier one (a persist top) is folded away.  Pass
    ``rungs`` (a per-neighbor callable or a list of specs/plans) to
    override the full chain instead.
    """
    from repro.mpi.ladder import LadderSpec
    from repro.plan import Fallback, Native, default_ladder_plan
    from repro.plan import lower as lower_plan

    if rungs is not None:
        if callable(rungs):
            return lambda neighbor: LadderSpec(
                [spec_for(r) for r in rungs(neighbor)])
        specs = [spec_for(r) for r in rungs]
        return lambda neighbor: LadderSpec(specs)
    resolve = edge_modules(module_for)
    ladder = default_ladder_plan()

    def build(neighbor: int) -> ModuleSpec:
        top = resolve(neighbor)
        chain, names = [], set()
        for rung in ladder.first(Fallback).rungs:
            spec = top if rung.first(Native) is not None \
                else lower_plan(rung)
            if spec.name in names:
                continue
            names.add(spec.name)
            chain.append(spec)
        return LadderSpec(chain)

    return build


def per_edge_autotuners(params: Optional[dict] = None,
                        store=None) -> EdgeModules:
    """A fresh closed-loop autotuner per neighbor.

    Each edge gets its own
    :class:`~repro.autotune.AdaptiveAggregator` (and therefore its own
    :class:`~repro.autotune.AutotuneController`), built from the same
    JSON-safe ``params`` that :func:`repro.autotune.build_autotuner`
    takes.  With a ``store``, edges learn plans under distinct keys —
    the neighbor rank is mixed into the workload key so asymmetric
    edges (different sizes, different hop counts) do not alias.
    """
    from repro.autotune import build_autotuner
    from repro.core.module import NativeSpec

    def resolve(neighbor: int) -> ModuleSpec:
        p = dict(params or {})
        if store is not None:
            extra = dict(p.get("key_extra") or {})
            extra["neighbor"] = neighbor
            p["key_extra"] = extra
        return NativeSpec(build_autotuner(p, store=store))

    return resolve
