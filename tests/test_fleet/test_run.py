"""Fleet runs: determinism, slowdowns, and the contended ranking."""

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    JobSpec,
    TrafficSpec,
    background_jobs,
    run_contended_pair,
    run_fleet,
    run_fleet_with_slowdowns,
)
from repro.units import KiB, ms, us

MIX = [
    JobSpec(name="pair", kind="pair", n_ranks=2, n_partitions=8,
            partition_size=64 * KiB, iterations=3, warmup=1),
    JobSpec(name="halo", kind="halo", n_ranks=3, n_partitions=4,
            partition_size=32 * KiB, iterations=3, warmup=1),
    JobSpec(name="bg", kind="traffic", n_ranks=2,
            traffic=TrafficSpec(kind="permutation", nbytes=128 * KiB,
                                period=us(40), horizon=ms(1), seed=5)),
]


def test_run_fleet_deterministic():
    a = run_fleet(MIX, placement="spread", seed=3).as_dict()
    b = run_fleet(MIX, placement="spread", seed=3).as_dict()
    assert a == b


def test_run_fleet_profile_shape():
    profile = run_fleet(MIX, placement="spread", seed=0)
    assert profile.makespan > 0
    assert set(profile.tenants) == {"pair", "halo", "bg"}
    assert profile.tenants["pair"].mean_iteration is not None
    assert profile.tenants["bg"].mean_iteration is None
    assert profile.tenants["bg"].bytes_transmitted > 0
    # The tenants' node sets are disjoint.
    nodes = [n for view in profile.tenants.values() for n in view.nodes]
    assert len(nodes) == len(set(nodes))
    assert sum(profile.link_histogram()) == len(profile.links) == 10


def test_slowdowns_vs_isolated_baselines():
    profile = run_fleet_with_slowdowns(MIX, placement="spread", seed=0)
    assert set(profile.slowdowns) == {"pair", "halo"}
    # Shared fabric plus a traffic tenant: nobody runs faster than alone.
    assert all(v > 1.0 for v in profile.slowdowns.values()), \
        profile.slowdowns
    baselines = profile.meta["isolated_baselines"]
    for name, slowdown in profile.slowdowns.items():
        mean = profile.tenants[name].mean_iteration
        assert slowdown == pytest.approx(mean / baselines[name])


def test_background_jobs_level():
    assert background_jobs(0) == []
    jobs = background_jobs(3, seed=2)
    assert len(jobs) == 3
    assert len({job.traffic.seed for job in jobs}) == 3
    assert all(job.kind == "traffic" for job in jobs)


def test_contended_pair_levels_monotone():
    times = {level: run_contended_pair(level=level, iterations=3,
                                       warmup=1)["mean_time"]
             for level in (0, 2)}
    assert times[2] > times[0]
    quiet = run_contended_pair(level=0, iterations=3, warmup=1)
    assert quiet["spine_utilization"] < 1.0
    assert len(quiet["iteration_times"]) == 3


def test_contended_pair_deterministic():
    kwargs = dict(module=["fixed", {"n_qps": 2, "n_transport": 4}],
                  level=1, iterations=3, warmup=1, seed=4)
    assert run_contended_pair(**kwargs) == run_contended_pair(**kwargs)


def test_fleet_needs_routed_topology():
    from repro.fleet.tenancy import TenantScheduler
    from repro.ib.topology import DragonflyPlus

    with pytest.raises(ConfigError):
        TenantScheduler([MIX[0]],
                        DragonflyPlus(nodes_per_leaf=2, leaves_per_group=2))
