"""Job descriptions and placement: who runs where on the shared fabric.

A :class:`JobSpec` names one tenant — an MPI job (point-to-point pair,
ring halo, fan-in reduce tree) or a background-traffic generator — in
JSON-safe terms so fleet scenarios survive the ``exp`` process pool.
:func:`place_jobs` maps every job onto a *disjoint* node set (one rank
per node; tenants never share a NIC, which is what makes the per-tenant
counter views in :mod:`repro.fleet.profile` exact rather than
attributed).  Three placement policies:

* ``packed`` — consecutive nodes, first fit: tenants mostly stay inside
  a leaf/group, minimizing shared links;
* ``spread`` — round-robin across Dragonfly groups: every tenant
  straddles the global links, maximizing contention;
* ``random`` — a seeded permutation of the node list, then first fit —
  the scheduler-roulette case between the two extremes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.fleet.traffic import TrafficSpec
from repro.units import KiB

JOB_KINDS = ("pair", "halo", "tree", "traffic")
PLACEMENTS = ("packed", "spread", "random")


@dataclass(frozen=True)
class JobSpec:
    """One tenant of the shared fabric (JSON-safe)."""

    name: str
    #: ``pair`` / ``halo`` / ``tree`` MPI jobs, or ``traffic``.
    kind: str = "pair"
    #: Ranks for MPI jobs; traffic generators use the same field for
    #: the node count they spray across.
    n_ranks: int = 2
    n_partitions: int = 8
    partition_size: int = 64 * KiB
    iterations: int = 4
    warmup: int = 1
    compute: float = 0.0
    #: Transport-module descriptor ``[name, params]``, kept as given
    #: (see :mod:`repro.exp.modules`).
    module: list = field(default_factory=lambda: ["persist"])
    #: Offered-load pattern; required for (and only for) ``traffic``.
    traffic: Optional[TrafficSpec] = None

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise ConfigError(f"unknown job kind {self.kind!r} "
                              f"(have: {', '.join(JOB_KINDS)})")
        if self.n_ranks < 2:
            raise ConfigError("a job needs at least two ranks")
        if self.kind == "traffic" and self.traffic is None:
            raise ConfigError("traffic jobs need a TrafficSpec")
        if self.kind != "traffic" and self.traffic is not None:
            raise ConfigError(f"{self.kind} jobs take no TrafficSpec")
        if self.n_partitions < 1 or self.partition_size < 1:
            raise ConfigError("jobs need positive partition geometry")

    def as_dict(self) -> dict:
        out = {
            "name": self.name, "kind": self.kind, "n_ranks": self.n_ranks,
            "n_partitions": self.n_partitions,
            "partition_size": self.partition_size,
            "iterations": self.iterations, "warmup": self.warmup,
            "compute": self.compute, "module": list(self.module),
        }
        if self.traffic is not None:
            out["traffic"] = self.traffic.as_dict()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "JobSpec":
        d = dict(d)
        if d.get("traffic") is not None:
            d["traffic"] = TrafficSpec(**d["traffic"])
        return cls(**d)


def place_jobs(jobs: list[JobSpec], topology, policy: str = "packed",
               seed: int = 0) -> dict[str, list[int]]:
    """Assign every job a disjoint node set on the routed topology.

    Returns ``{job.name: [node_id, ...]}`` with one node per rank.
    Raises :class:`~repro.errors.ConfigError` when the jobs need more
    nodes than the fabric has, on duplicate job names, or on an unknown
    policy.
    """
    if policy not in PLACEMENTS:
        raise ConfigError(f"unknown placement {policy!r} "
                          f"(have: {', '.join(PLACEMENTS)})")
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate job names in {names}")
    n_nodes = topology.n_nodes
    need = sum(job.n_ranks for job in jobs)
    if need > n_nodes:
        raise ConfigError(
            f"jobs need {need} nodes, fabric has {n_nodes}")
    if policy == "packed":
        order = list(range(n_nodes))
    elif policy == "spread":
        # Interleave groups: node 0 of group 0, node 0 of group 1, ...
        per_group = topology.nodes_per_group
        order = [g * per_group + i
                 for i in range(per_group)
                 for g in range(topology.groups)]
    else:  # random
        rng = np.random.Generator(np.random.PCG64(seed))
        order = [int(n) for n in rng.permutation(n_nodes)]
    placement: dict[str, list[int]] = {}
    cursor = 0
    for job in jobs:
        placement[job.name] = order[cursor:cursor + job.n_ranks]
        cursor += job.n_ranks
    return placement
