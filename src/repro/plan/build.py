"""Constructors from the existing decision objects to the IR.

Everything here is a pure translation: the three knobs or a module
descriptor in; a :class:`Plan` out.  The leaf form is one value with
two spellings — ``PlanChoice.plan`` / ``PlanChoice.from_plan``
(:mod:`repro.core.aggregators`) are inverses.
"""

from __future__ import annotations

from typing import Optional

from repro.config import ClusterConfig
from repro.plan.ir import Aggregate, Partition, Persist, Plan, PlanError, QPPool


def leaf_plan(n_transport: int, n_qps: int,
              delta: Optional[float] = None) -> Plan:
    """The 3-knob plan: ``partition`` + ``qp_pool`` [+ ``aggregate``]."""
    ops = [Partition(n=n_transport), QPPool(n=n_qps)]
    if delta is not None:
        ops.append(Aggregate(delta=delta))
    return Plan(tuple(ops))


def module_plan(module, n_user: int, partition_size: int,
                config: ClusterConfig) -> Plan:
    """Resolve a module descriptor's plan for one workload.

    ``module`` is what :func:`repro.exp.modules.build_module` returns:
    ``None`` means the persist baseline, and an ``Aggregator`` is asked
    for its ``PlanChoice`` at this workload.
    """
    from repro.core.aggregators import Aggregator

    if module is None:
        return Plan((Persist(),))
    if isinstance(module, Aggregator):
        return module.plan(n_user, partition_size, config).plan
    raise PlanError(f"cannot derive a plan from {module!r}")
