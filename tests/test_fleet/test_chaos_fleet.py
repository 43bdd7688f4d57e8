"""The fleet chaos workload: tenancy invariants under a spine flap."""

from repro.chaos import NATIVE, WORKLOADS, check_invariants
from repro.exp import Runner, get_experiment
from repro.exp.modules import build_module
from repro.fleet.chaos import TENANT_NODES, run_fleet_workload


def run_native(schedule, seed):
    return run_fleet_workload(schedule, seed, build_module(NATIVE))


def test_fleet_workload_registered():
    assert "fleet" in WORKLOADS


def test_clean_run_satisfies_invariants():
    report = run_native(None, seed=7)
    assert report.completed
    assert report.integrity_failures == 0
    assert report.leaks == []
    assert check_invariants(report) == []
    # Both tenants carried traffic, on their own NICs only.
    assert all(b > 0 for b in report.meta["tenant_bytes"].values())


def test_tenant_nodes_share_the_spine_from_distinct_leaves():
    from repro.fleet.run import default_topology

    topo = default_topology()
    leaves = set()
    for src, dst in TENANT_NODES.values():
        route = topo.route(src, dst)
        assert ("global", 0, 1) in route
        leaves.add(topo.leaf_of(src))
    # Different leaves: the flap correlates tenants through the shared
    # spine link, not through a shared leaf switch.
    assert len(leaves) == len(TENANT_NODES)


def test_fleet_runs_deterministic():
    a = run_native(None, seed=3)
    b = run_native(None, seed=3)
    assert a.duration == b.duration
    assert a.counters == b.counters
    assert a.meta["tenant_bytes"] == b.meta["tenant_bytes"]


def test_fleet_campaign_with_spine_flap():
    experiment = get_experiment("ext_chaos")
    spec = experiment.spec(workloads=("fleet",), runs=2, seed=11,
                           ladder=False, kinds=("flap_storm",))
    payload = spec.collect(Runner().run(spec.points))
    assert experiment.violations(payload) == []
    for run in payload["runs"]:
        assert run["completed"]
        assert run["leaks"] == []
        # The deterministic spine flap rides on the generated schedule.
        assert run["meta"]["spine_flap"]


def routed_chunks(monkeypatch, schedule):
    """Chunks carried by the fabric's LinkQueues over one fleet run."""
    from repro.fleet import chaos

    clusters = []

    class RecordingCluster(chaos.Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            clusters.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(chaos, "Cluster", RecordingCluster)
        report = run_native(schedule, seed=1)
    assert report.completed
    [cluster] = clusters
    stats = cluster.fabric.link_stats(report.duration)
    return sum(link["chunks"] for link in stats.values())


def test_fault_schedule_bypasses_the_routed_links(monkeypatch):
    """Pin: with a schedule installed no LinkQueue carries a chunk.

    The NIC models loss and retransmission on the end-to-end wire only
    (the one commented condition in ``NIC._qp_transmitter``), so under
    faults the tenants do *not* contend for the spine.  Composing loss
    with hop-by-hop forwarding is a follow-up that must flip the first
    assertion on purpose.
    """
    from repro.faults import FaultSchedule

    assert routed_chunks(monkeypatch, FaultSchedule()) == 0
    assert routed_chunks(monkeypatch, None) > 0
