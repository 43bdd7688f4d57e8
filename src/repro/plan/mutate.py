"""Plan mutation: the neighborhood a search policy explores.

:func:`neighbors` enumerates the single-step rewrites of a leaf plan
— halve/double the partition count, move the QP pool toward the
WR-concurrency caps, toggle or rescale the δ-timer — legalizes each
against the config, and dedups by digest.  This is the move set of
``repro.autotune.plan_policy.PlanMutationPolicy``: instead of
drawing arms from a fixed grid, the policy walks this graph from a
model-seeded start.

Every mutation stays inside the provisioning envelope the adaptive
aggregator sets up (``qp_cap``), so a mid-run rewrite never asks for
more QPs than were created.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from repro.config import ClusterConfig
from repro.plan.ir import Aggregate, Partition, Plan, QPPool
from repro.plan.passes import Legalize, PassContext


def neighbors(plan: Plan, n_user: int, config: ClusterConfig,
              deltas: Iterable[Optional[float]] = (),
              qp_cap: Optional[int] = None) -> list[Plan]:
    """Single-step mutations of a leaf plan, legalized and deduped."""
    from repro.core.aggregators import PlanChoice, _qps_for

    if plan.first(Partition) is None:
        return []
    here = PlanChoice.from_plan(plan)
    n, n_qps, delta = here.n_transport, here.n_qps, here.delta

    candidates: list[Plan] = []

    def _variant(n_transport: int, qps: int,
                 new_delta: Optional[float]) -> None:
        n_transport = max(1, min(n_transport, n_user))
        cap = min(n_transport,
                  qp_cap if qp_cap is not None
                  else _qps_for(n_user, n_user, config))
        qps = max(1, min(qps, cap))
        ops = []
        for op in plan.ops:
            if isinstance(op, Partition):
                op = replace(op, n=n_transport)
            elif isinstance(op, QPPool):
                op = replace(op, n=qps)
            elif isinstance(op, Aggregate):
                if new_delta is None:
                    continue
                op = replace(op, delta=new_delta)
            ops.append(op)
        # Knobs the plan left implicit (one QP, no timer) grow an op.
        kept = {type(op) for op in ops}
        if QPPool not in kept and qps != 1:
            ops.append(QPPool(n=qps))
        if Aggregate not in kept and new_delta is not None:
            ops.append(Aggregate(delta=new_delta))
        candidates.append(Plan(tuple(ops)))

    # Partition moves (stay on powers of two; legalize re-rounds the
    # n_user clamp if it lands off-grid).
    _variant(n * 2, n_qps, delta)
    if n > 1:
        _variant(n // 2, n_qps, delta)

    # QP-pool moves: halve/double plus the two concurrency caps the
    # model-seeded grid uses.
    qp_moves = {n_qps * 2, max(1, n_qps // 2),
                _qps_for(n, n, config),
                _qps_for(n, n_user, config)}
    for qps in sorted(qp_moves):
        if qps != n_qps:
            _variant(n, qps, delta)

    # δ moves: toggle to each candidate value, and rescale a live δ.
    for candidate in deltas:
        if candidate != delta:
            _variant(n, n_qps, candidate)
    if delta is not None:
        _variant(n, n_qps, delta * 2)
        _variant(n, n_qps, delta / 2)

    legalize = Legalize()
    ctx = PassContext(config=config)
    seen = {plan.digest}
    out = []
    for candidate in candidates:
        legal = legalize.run(candidate, ctx)
        if legal.digest not in seen:
            seen.add(legal.digest)
            out.append(legal)
    return out
