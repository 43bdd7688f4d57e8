"""The one rewrite pass over plans: :class:`Legalize`.

``Legalize`` clamps a plan's knobs to NIC/fabric limits and is the
identity on a plan that already respects them (guarded by
``tests/test_plan/test_passes.py``) — which is what keeps the golden
benchmarks bit-identical when the hot path lowers through it.
:func:`repro.plan.lower.lower` runs it before emitting module specs and
:func:`repro.plan.mutate.neighbors` legalizes every candidate with it;
a new rewrite belongs in ``Legalize``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config import ClusterConfig
from repro.plan.ir import Partition, Plan, QPPool


@dataclass(frozen=True)
class PassContext:
    """Everything a pass may consult; plans themselves stay pure.

    ``Legalize`` reads only ``config``; ``n_user`` and ``partition_size``
    stay because perfbench's plan probe builds its context with them.
    """

    config: Optional[ClusterConfig] = None
    #: User-requested partition count (None = unknown at rewrite time).
    n_user: Optional[int] = None
    #: Bytes per user partition (None = unknown at rewrite time).
    partition_size: Optional[int] = None


class Legalize:
    """Clamp knobs to NIC/fabric limits; identity on legal plans.

    * ``partition.n`` is rounded down to a power of two (the
      transport engine's group math requires it; the runtime clamp
      against ``n_user`` stays in ``FixedAggregation.plan`` so that
      lowering a legal plan is bit-identical to constructing the
      aggregator directly);
    * ``qp_pool.n`` is capped by the partition count (one WR chain
      per transport partition — more QPs than partitions can never
      be selected) and by ``NICConfig.max_qps``.
    """

    def run(self, plan: Plan, ctx: PassContext) -> Plan:
        n_partition = None
        part = plan.first(Partition)
        if part is not None:
            n_partition = 1 << (part.n.bit_length() - 1)
        ops = []
        for op in plan.ops:
            if isinstance(op, Partition) and op.n != n_partition:
                op = replace(op, n=n_partition)
            elif isinstance(op, QPPool):
                cap = op.n
                if n_partition is not None:
                    cap = min(cap, n_partition)
                if ctx.config is not None:
                    cap = min(cap, ctx.config.nic.max_qps)
                if cap != op.n:
                    op = replace(op, n=max(1, cap))
            ops.append(op)
        return Plan(tuple(ops))


def lowering_pipeline() -> Legalize:
    """The pass ``lower()`` runs: ``Legalize``."""
    return Legalize()


__all__ = [
    "PassContext",
    "Legalize",
    "lowering_pipeline",
]
