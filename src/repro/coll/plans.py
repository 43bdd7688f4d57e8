"""Per-edge transport-plan resolution.

Every edge of a partitioned collective is its own matched pair, so
every edge can run its own aggregation plan.  :func:`edge_modules`
normalizes the ``module_for`` argument the collective inits accept —
anything from "one baseline everywhere" to "a fresh closed-loop
autotuner per neighbor" — into one canonical shape::

    resolve(neighbor_rank) -> ModuleSpec        # fresh per edge

Accepted inputs:

* ``None`` — the ``part_persist`` baseline on every edge;
* a :class:`repro.plan.Plan` — lowered through
  :func:`repro.plan.lower`;
* an :class:`~repro.core.aggregators.Aggregator` — the native module
  with that (shared) aggregator on every edge; static aggregators are
  stateless so sharing is safe, and each matched pair still computes
  its own plan at its own message size;
* a :class:`~repro.mpi.modules.ModuleSpec` or zero-argument spec
  factory — reused/invoked for every edge;
* a one-argument callable ``f(neighbor)`` returning any of the above
  — full per-edge control (:func:`per_edge_autotuners` builds the
  common case: one independent autotune controller per neighbor).

:func:`ladder_modules` wraps each edge's spec in the canonical
degradation ladder (preferred → ``part_persist`` → channels).
"""

from __future__ import annotations

import inspect
from typing import Callable, Optional

from repro.core.module import spec_for
from repro.mpi.modules import ModuleSpec

#: Canonical resolver: neighbor rank -> module spec for that edge.
EdgeModules = Callable[[int], ModuleSpec]


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
    if callable(module_for) and _takes_neighbor(module_for):
        return lambda neighbor: spec_for(module_for(neighbor))
    return lambda neighbor: spec_for(module_for)


def ladder_modules(module_for=None) -> EdgeModules:
    """Wrap every edge's transport in a graceful-degradation ladder.

    ``module_for`` (any shape :func:`edge_modules` accepts) names the
    preferred rung, so a tripped edge degrades native → persist →
    channels; a rung that would duplicate an earlier one (a persist
    top) is folded away.  Every edge gets fresh baseline rungs.
    """
    from repro.mpi.channel_module import ChannelSpec
    from repro.mpi.ladder import LadderSpec
    from repro.mpi.persist_module import PersistSpec

    resolve = edge_modules(module_for)

    def build(neighbor: int) -> ModuleSpec:
        chain, names = [], set()
        for spec in (resolve(neighbor), PersistSpec(), ChannelSpec()):
            if spec.name not in names:
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
