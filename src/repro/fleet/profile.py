"""Fleet observability: per-tenant counter views and the profile rollup.

Tenants never share a node (see :func:`repro.fleet.spec.place_jobs`),
so a tenant's traffic is exactly the traffic of its NICs — the
:class:`TenantView` sums NIC statistics over the job's node set, with
no attribution heuristics and no possibility of cross-tenant leakage
(the disjointness is what the fleet chaos invariants verify).  The
:class:`FleetProfile` rolls the views up with the routed fabric's
per-link occupancy stats into one JSON-safe report: link utilization
histogram, per-job iteration times, and (when isolated baselines are
supplied) per-job slowdown factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class TenantView:
    """One tenant's share of the fabric, summed over its own NICs."""

    name: str
    kind: str
    nodes: list[int]
    bytes_transmitted: int = 0
    messages_delivered: int = 0
    wqes_processed: int = 0
    #: Measured per-iteration wall times (MPI jobs; empty for traffic).
    iteration_times: list[float] = field(default_factory=list)
    #: Virtual time from first barrier release to last rank done.
    total_time: float = 0.0

    @property
    def mean_iteration(self) -> Optional[float]:
        if not self.iteration_times:
            return None
        return float(np.mean(self.iteration_times))

    def as_dict(self) -> dict:
        return {
            "name": self.name, "kind": self.kind, "nodes": list(self.nodes),
            "bytes_transmitted": self.bytes_transmitted,
            "messages_delivered": self.messages_delivered,
            "wqes_processed": self.wqes_processed,
            "iteration_times": list(self.iteration_times),
            "mean_iteration": self.mean_iteration,
            "total_time": self.total_time,
        }


def collect_tenant_views(cluster, jobs, placement,
                         records: dict) -> dict[str, TenantView]:
    """Build the per-tenant views from a finished fleet cluster."""
    views: dict[str, TenantView] = {}
    for job in jobs:
        nodes = placement[job.name]
        view = TenantView(name=job.name, kind=job.kind, nodes=list(nodes))
        for node in nodes:
            nic = cluster.fabric.nic_at(node)
            view.bytes_transmitted += nic.bytes_transmitted
            view.messages_delivered += nic.messages_delivered
            view.wqes_processed += nic.wqes_processed
        rec = records.get(job.name)
        if rec is not None:
            view.iteration_times = list(rec.get("iterations", []))
            view.total_time = float(rec.get("total_time", 0.0))
        views[job.name] = view
    return views


@dataclass
class FleetProfile:
    """The rollup of one multi-tenant run (JSON-safe via as_dict)."""

    makespan: float
    #: Per-link occupancy stats from :meth:`Fabric.link_stats`.
    links: dict = field(default_factory=dict)
    tenants: dict[str, TenantView] = field(default_factory=dict)
    #: ``{job_name: slowdown}`` vs the isolated baseline, when known.
    slowdowns: dict[str, float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def link_histogram(self) -> list[int]:
        """Link count per utilization decile (saturation at a glance)."""
        counts = [0] * 10
        for stats in self.links.values():
            u = min(stats["utilization"], 1.0 - 1e-12)
            counts[int(u * 10)] += 1
        return counts

    def busiest_links(self, n: int = 3) -> list[tuple[str, float]]:
        ranked = sorted(self.links.items(),
                        key=lambda kv: kv[1]["utilization"], reverse=True)
        return [(name, stats["utilization"]) for name, stats in ranked[:n]]

    def as_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "links": self.links,
            "link_histogram": self.link_histogram(),
            "busiest_links": [list(pair) for pair in self.busiest_links()],
            "tenants": {name: view.as_dict()
                        for name, view in self.tenants.items()},
            "slowdowns": dict(self.slowdowns),
            "meta": dict(self.meta),
        }


def attach_slowdowns(profile: FleetProfile,
                     baselines: dict[str, float]) -> None:
    """Fill ``profile.slowdowns`` from isolated mean-iteration baselines."""
    for name, view in profile.tenants.items():
        base = baselines.get(name)
        mean = view.mean_iteration
        if base and mean is not None and base > 0:
            profile.slowdowns[name] = mean / base
