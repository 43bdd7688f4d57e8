"""Aggregation strategies: how user partitions map to transport partitions.

An :class:`Aggregator` decides, at ``Psend_init``/``Precv_init`` time,
how many transport partitions and QPs the native module uses for a
request (and whether the δ-timer path is armed).  Constraints from
Section IV-C apply to every strategy: power-of-two counts only, the
transport count is bounded by the user count (no disaggregation), and
groups are contiguous and aligned on ``n_user / n_transport``
boundaries.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.config import ClusterConfig
from repro.errors import ConfigError, TuningError
from repro.model.loggp import LogGPParams, LogGPTable
from repro.model.ploggp import optimal_transport_partitions
from repro.units import is_power_of_two


@dataclass(frozen=True)
class PlanChoice:
    """The one plan type: transport partitions, QPs and the timer δ.

    An aggregator produces one per request (``Psend_init``), a tuning
    policy one per round, the tuning store persists them, and the IR
    leaf form ``partition + qp_pool [+ aggregate]`` is the same value
    as text (:attr:`plan` / :meth:`from_plan` are inverses).
    """

    n_transport: int
    n_qps: int
    #: Arm the δ-timer path with this value (None = plain PLogGP path).
    delta: Optional[float] = None
    #: Ablation: flush non-contiguous arrivals as ONE multi-SGE WR into
    #: a receive-side staging buffer (the alternative the paper
    #: considered and rejected in Section IV-D — it needs staging and
    #: out-of-band layout information at the receiver).
    scatter_gather: bool = False

    def __post_init__(self):
        if not is_power_of_two(self.n_transport):
            raise ConfigError(
                f"transport partition count must be a power of two, "
                f"got {self.n_transport}")
        if self.n_qps < 1:
            raise ConfigError(f"need at least one QP, got {self.n_qps}")
        if self.delta is not None and self.delta < 0:
            raise ConfigError(f"negative timer delta: {self.delta}")

    def validate_for(self, n_user: int) -> None:
        if self.n_transport > n_user:
            raise TuningError(
                f"choice n_transport {self.n_transport} exceeds "
                f"n_user {n_user}")

    def as_dict(self) -> dict:
        """The stored form; ``scatter_gather`` appears only when set, so
        entries written before the field existed stay byte-identical."""
        d = {"n_transport": self.n_transport, "n_qps": self.n_qps,
             "delta": self.delta}
        if self.scatter_gather:
            d["scatter_gather"] = True
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PlanChoice":
        return cls(n_transport=int(d["n_transport"]),
                   n_qps=int(d["n_qps"]),
                   delta=(None if d.get("delta") is None
                          else float(d["delta"])),
                   scatter_gather=bool(d.get("scatter_gather", False)))

    # The plan IR is imported inside the two views: repro.plan lowers
    # onto this module, so neither may need the other at import time.

    @property
    def plan(self):
        """This choice as a :class:`repro.plan.Plan` (IR leaf form)."""
        from repro.plan.build import leaf_plan

        return leaf_plan(self.n_transport, self.n_qps, delta=self.delta,
                         scatter_gather=self.scatter_gather)

    @classmethod
    def from_plan(cls, plan) -> "PlanChoice":
        """The choice a leaf plan denotes (inverse of :attr:`plan`)."""
        from repro.plan.ir import Aggregate, Partition, QPPool

        part = plan.first(Partition)
        if part is None:
            raise ConfigError(
                f"not a leaf plan (no partition op): {plan.digest}")
        pool = plan.first(QPPool)
        agg = plan.first(Aggregate)
        return cls(n_transport=part.n,
                   n_qps=pool.n if pool is not None else 1,
                   delta=agg.delta if agg is not None else None,
                   scatter_gather=agg.sg if agg is not None else False)


def _qps_for(n_transport: int, max_concurrent_wrs: int,
             config: ClusterConfig) -> int:
    """QPs so worst-case in-flight WRs respect the 16-per-QP limit."""
    limit = config.nic.max_outstanding_rdma
    needed = math.ceil(max_concurrent_wrs / limit)
    return max(1, min(n_transport, config.part.default_qps), needed)


class Aggregator(abc.ABC):
    """Strategy interface."""

    @abc.abstractmethod
    def plan(self, n_user: int, partition_size: int,
             config: ClusterConfig) -> PlanChoice:
        """Decide transport partitions / QPs for one request."""

    def provision(self, n_user: int, partition_size: int, config: ClusterConfig
                  ) -> tuple[PlanChoice, Optional[object]]:
        """The plan to build resources for, and who re-plans each round.

        The second element is the closed-loop controller
        (:mod:`repro.autotune`) the module consults at the top of every
        round; None — every paper aggregator — keeps the module on the
        static single-plan path.
        """
        return self.plan(n_user, partition_size, config), None

    def describe(self) -> str:
        return type(self).__name__


class FixedAggregation(Aggregator):
    """Explicit transport-partition and QP counts (the Fig. 6/7 sweeps)."""

    def __init__(self, n_transport: int, n_qps: int,
                 timer_delta: Optional[float] = None,
                 scatter_gather: bool = False):
        self.choice = PlanChoice(n_transport, n_qps, delta=timer_delta,
                                 scatter_gather=scatter_gather)

    def plan(self, n_user, partition_size, config):
        # No disaggregation: fall back to the user's count when the
        # explicit one exceeds it.
        return replace(self.choice,
                       n_transport=min(self.choice.n_transport, n_user))

    def describe(self):
        return f"fixed(T={self.choice.n_transport}, QP={self.choice.n_qps})"


class NoAggregation(Aggregator):
    """One transport partition per user partition."""

    def __init__(self, n_qps: Optional[int] = None):
        if n_qps is not None and n_qps < 1:
            raise ConfigError(f"n_qps must be >= 1, got {n_qps}")
        self.n_qps = n_qps

    def plan(self, n_user, partition_size, config):
        n_qps = self.n_qps if self.n_qps is not None else _qps_for(
            n_user, n_user, config)
        return PlanChoice(n_transport=n_user, n_qps=n_qps)

    def describe(self):
        return "none"


class PLogGPAggregator(Aggregator):
    """Model-driven aggregation (Section IV-C).

    Evaluates the PLogGP model at init with the message size, requested
    user partitions, and a delay, over power-of-two transport counts.
    """

    def __init__(self, params: Union[LogGPParams, LogGPTable],
                 delay: float, max_transport: int = 32):
        if delay < 0:
            raise ConfigError(f"negative delay: {delay}")
        if max_transport < 1:
            raise ConfigError("max_transport must be >= 1")
        self.params = params
        self.delay = delay
        self.max_transport = max_transport

    def plan(self, n_user, partition_size, config):
        total = n_user * partition_size
        n_transport = optimal_transport_partitions(
            self.params, total, n_user=n_user, delay=self.delay,
            max_transport=self.max_transport)
        n_transport = min(n_transport, n_user)
        return PlanChoice(
            n_transport=n_transport,
            n_qps=_qps_for(n_transport, n_transport, config),
        )

    def describe(self):
        return f"ploggp(delay={self.delay})"


class TimerPLogGPAggregator(PLogGPAggregator):
    """PLogGP grouping plus the δ-timer dynamic path (Section IV-D).

    The first thread of a group to call ``Pready`` sleeps up to δ; on
    wake it flushes the largest contiguous runs of arrived partitions,
    and later arrivals send themselves immediately.  Worst case the
    module issues one WR per *user* partition, so QPs are sized for
    that.
    """

    def __init__(self, params: Union[LogGPParams, LogGPTable],
                 delay: float, delta: Optional[float] = None,
                 max_transport: int = 32, scatter_gather: bool = False):
        super().__init__(params, delay, max_transport)
        if delta is not None and delta < 0:
            raise ConfigError(f"negative delta: {delta}")
        self.delta = delta
        self.scatter_gather = scatter_gather

    def plan(self, n_user, partition_size, config):
        base = super().plan(n_user, partition_size, config)
        delta = self.delta if self.delta is not None else config.part.timer_delta
        return replace(
            base, n_qps=_qps_for(base.n_transport, n_user, config),
            delta=delta, scatter_gather=self.scatter_gather)

    def describe(self):
        return f"timer-ploggp(delta={self.delta})"
