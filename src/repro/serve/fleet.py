"""Fleet tenants resolving their plans through the tuning service.

The demand side of :mod:`repro.serve`: :func:`run_served_tenants` runs
a sequence of fleet tenants (each a partitioned pair on the routed
fabric, exactly a PR9 ``JobSpec``) whose autotuners share one
:class:`~repro.serve.service.TuningService` through per-tenant
:class:`~repro.serve.client.ServeClient` handles.

Tenant #1 arrives cold: its controller explores, converges, and
commits the learned plan to the service.  Tenant #2 (same workload,
same cluster, possibly a different policy seed) finds the entry and
pins it — zero exploration rounds, first-round-optimal — which is the
entire point of tuning-as-a-service: exploration cost is paid once per
``(workload, cluster)`` key fleet-wide, not once per tenant.

The run also audits the bit-identity acceptance criterion: the plan a
tenant gets through the service stack (client → cache → shard) must
equal, field for field, what a plain
:class:`~repro.autotune.TuningStore` opened directly on the shard
directory returns for the same key.
"""

from __future__ import annotations

from typing import Optional

from repro.autotune import TuningStore, build_autotuner
from repro.config import ClusterConfig
from repro.fleet.run import default_topology
from repro.fleet.spec import JobSpec
from repro.fleet.tenancy import TenantScheduler
from repro.serve.client import LocalTransport, ServeClient
from repro.serve.service import TuningService
from repro.units import KiB

#: A small arm set that converges and commits within a short run.
SERVED_BANDIT = {"policy": "bandit", "counts": [4, 16], "deltas": [None],
                 "epsilon": 0.3, "decay": 0.9, "bandit_seed": 3,
                 "config_tag": "fleet"}


def run_served_tenants(root: str,
                       autotune_params: Optional[dict] = None,
                       n_tenants: int = 2,
                       n_partitions: int = 16,
                       partition_size: int = 64 * KiB,
                       iterations: int = 24,
                       seed: int = 0,
                       n_shards: int = 4,
                       config: Optional[ClusterConfig] = None) -> dict:
    """Run ``n_tenants`` identical tenants against one service.

    Tenants run sequentially (each is a separate job arrival) against
    a service rooted at ``root``.  Returns per-tenant trajectories and
    the service/bit-identity audit.
    """
    params = dict(autotune_params or SERVED_BANDIT)
    service = TuningService(root, n_shards=n_shards)
    tenants = []
    store_key = None
    for t in range(n_tenants):
        client = ServeClient(LocalTransport(service))
        agg = build_autotuner(dict(params), store=client)
        job = JobSpec(name="mpi", kind="pair", n_ranks=2,
                      n_partitions=n_partitions,
                      partition_size=partition_size,
                      iterations=iterations, warmup=0)
        scheduler = TenantScheduler([job], default_topology(),
                                    config=config, placement="spread",
                                    seed=seed,
                                    module_overrides={"mpi": agg})
        profile = scheduler.run()
        controller = agg.controller
        store_key = controller.store_key
        tenants.append({
            "tenant": t,
            "explored": controller.explored,
            "pinned": controller.pinned is not None,
            "best_plan": controller.best_choice.as_dict(),
            "mean_iteration": profile.tenants["mpi"].mean_iteration,
            "client": client.stats(),
        })

    # Bit-identity audit: the served plan vs a direct TuningStore read
    # of the shard directory holding the entry.
    audit_client = ServeClient(LocalTransport(service))
    served = audit_client.get(store_key)
    shard_dir = service.store.shards[service.store.shard_of(store_key)].root
    direct = TuningStore(shard_dir).get(store_key)
    bit_identical = (served is not None and direct is not None
                     and served.as_dict() == direct.as_dict())
    return {
        "tenants": tenants,
        "store_key": store_key,
        "served_plan": served.as_dict() if served is not None else None,
        "direct_plan": direct.as_dict() if direct is not None else None,
        "bit_identical": bit_identical,
        "warm_skipped_exploration": (
            len(tenants) >= 2
            and tenants[0]["explored"]
            and tenants[-1]["pinned"]
            and not tenants[-1]["explored"]),
        "service": service.stats(),
    }
