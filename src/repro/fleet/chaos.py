"""The fleet chaos workload: a spine-link flap during multi-job tenancy.

Two pair tenants are placed on the routed test fabric so that both
routes cross the same global (spine) link from different leaves.  On
top of whatever fault schedule the campaign generated, the workload
injects a deterministic flap of that spine link — expressed as
simultaneous flaps of both tenants' node pairs, since fault injection
keys on endpoints — so every campaign run exercises correlated
cross-tenant recovery.  The correlation is in *time* only: with a
schedule installed the NIC models loss on the end-to-end wire and
bypasses the routed ``LinkQueue``s (``NIC._qp_transmitter``), so the
tenants contend for the spine in the clean run (``schedule=None``) but
not under the flap.

Invariants beyond the standard chaos set:

* **exactly-once per tenant** — both tenants run *backed* buffers and
  verify the receiver's bytes against the sender's seeded fill pattern
  every iteration (replays and rescues must never duplicate or corrupt
  a partition), on top of the campaign's global duplicate accounting;
* **no cross-tenant leakage** — tenants own disjoint node sets, so any
  NIC outside a tenant's set that carried traffic is a leak; reported
  through ``RunReport.leaks``.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.invariants import RunReport
from repro.mem.buffer import PartitionedBuffer
from repro.mpi.cluster import Cluster
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.runtime.rounds import spawn_rounds
from repro.units import KiB, us

#: Tenant name -> (sender node, receiver node).  Both pairs cross the
#: global 0->1 spine link of the 8-node routed test fabric, from
#: different leaves (see RoutedDragonflyPlus(2, 2, groups=2)).
TENANT_NODES = {"tenantA": (0, 4), "tenantB": (2, 6)}

#: Deterministic shared-spine flap window (virtual seconds): inside the
#: default 2.5 ms campaign horizon, long enough to exhaust the chaos
#: config's short retry budget.
SPINE_FLAP_START = 0.6e-3
SPINE_FLAP_DURATION = 0.3e-3


def _fill_seed(it: int, tenant_index: int) -> int:
    return ((it * 7 + tenant_index) * 2654435761) % (1 << 31)


def run_fleet_workload(schedule, seed, module, config=None, iterations=4,
                       warmup=1) -> RunReport:
    """Run the two-tenant fleet under faults; see the module docstring.

    ``module`` is a live per-edge plan (:func:`repro.coll.edge_modules`
    vocabulary).
    """
    from repro.chaos.workloads import chaos_config
    from repro.coll.plans import edge_modules
    from repro.fleet.run import default_topology

    if schedule is not None:
        for a, b in TENANT_NODES.values():
            schedule.link_flap(a, b, start=SPINE_FLAP_START,
                               duration=SPINE_FLAP_DURATION)
    cfg = chaos_config(seed, config)
    topology = default_topology()
    with Cluster(n_nodes=topology.n_nodes, config=cfg,
                 topology=topology) as cluster:
        if schedule is not None:
            cluster.fabric.install_faults(schedule)
        resolver = edge_modules(module)

        n_partitions, partition_size = 4, 4 * KiB
        phase = ComputePhase(compute=us(150), noise=SingleThreadDelay(0.01))
        state = {"integrity": 0}
        clocks = []
        tenants = list(TENANT_NODES)
        procs = {}
        for name in tenants:
            src_node, dst_node = TENANT_NODES[name]
            procs[name] = (cluster.add_process(node_id=src_node),
                           cluster.add_process(node_id=dst_node))

        def tenant_program(name, index, tag):
            src, dst = procs[name]
            sbuf = PartitionedBuffer(n_partitions, partition_size, backed=True)
            rbuf = PartitionedBuffer(n_partitions, partition_size, backed=True)

            def setup(r, proc):
                if r == 0:
                    req = proc.psend_init(sbuf, dest=dst.rank, tag=tag,
                                          module=resolver(dst.rank))
                    team = WorkerTeam.on(cluster, n_partitions, f"noise.{name}")
                else:
                    req = proc.precv_init(rbuf, source=src.rank, tag=tag,
                                          module=resolver(src.rank))

                def one_round(it):
                    if r == 0:
                        sbuf.fill_pattern(_fill_seed(it, index))
                    yield from proc.start(req)
                    if r == 0:
                        yield team.run_round(
                            phase, lambda tid: proc.pready(req, tid))
                    yield from proc.wait_partitioned(req)
                    if r == 1 and not np.array_equal(
                            rbuf.data, rbuf.expected_pattern(
                                0, rbuf.nbytes, _fill_seed(it, index))):
                        state["integrity"] += 1

                return one_round

            clocks.append(spawn_rounds(cluster, (src, dst), iterations, warmup,
                                       setup))

        for index, name in enumerate(tenants):
            tenant_program(name, index, tag=index * 1000)
        cluster.run()

        completed = all(clock.done == 2 for clock in clocks)
        tenant_nodes = {n for pair in TENANT_NODES.values() for n in pair}
        leaks = []
        tenant_bytes = {}
        for name in tenants:
            tenant_bytes[name] = sum(
                cluster.fabric.nic_at(n).bytes_transmitted
                for n in TENANT_NODES[name])
        for node in range(topology.n_nodes):
            if node in tenant_nodes:
                continue
            nic = cluster.fabric.nic_at(node)
            if nic.bytes_transmitted or nic.messages_delivered:
                leaks.append(
                    f"cross-tenant leakage: idle node {node} carried "
                    f"{nic.bytes_transmitted}B / "
                    f"{nic.messages_delivered} messages")
        return RunReport(
            workload="fleet", completed=completed,
            duration=float(cluster.env.now) if completed else 0.0,
            integrity_failures=state["integrity"],
            counters=dict(cluster.fabric.counters),
            leaks=leaks,
            meta={"tenants": {name: list(TENANT_NODES[name])
                              for name in tenants},
                  "tenant_bytes": tenant_bytes,
                  "spine_flap": [SPINE_FLAP_START, SPINE_FLAP_DURATION],
                  "iterations": iterations})
