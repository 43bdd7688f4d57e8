"""Job specs, module descriptors, and placement policies."""

import pytest

from repro.errors import ConfigError
from repro.fleet.spec import JobSpec, place_jobs
from repro.fleet.traffic import TrafficSpec
from repro.ib.topology import RoutedDragonflyPlus

TOPO = RoutedDragonflyPlus(nodes_per_leaf=2, leaves_per_group=2, groups=2)


def test_job_validation():
    with pytest.raises(ConfigError):
        JobSpec(name="x", kind="nope")
    with pytest.raises(ConfigError):
        JobSpec(name="x", n_ranks=1)
    with pytest.raises(ConfigError):
        JobSpec(name="x", kind="traffic")  # needs a TrafficSpec
    with pytest.raises(ConfigError):
        JobSpec(name="x", kind="pair", traffic=TrafficSpec())
    with pytest.raises(ConfigError):
        JobSpec(name="x", n_partitions=0)


def test_job_round_trips_through_dict():
    job = JobSpec(name="mpi", kind="pair", n_partitions=4,
                  module=["fixed", {"n_qps": 2, "n_transport": 8}])
    assert JobSpec.from_dict(job.as_dict()) == job
    traffic = JobSpec(name="bg", kind="traffic",
                      traffic=TrafficSpec(kind="incast", seed=3))
    assert JobSpec.from_dict(traffic.as_dict()) == traffic


def test_module_descriptor_round_trip():
    # A job keeps the ``[name, params]`` descriptor it is given, through
    # its dict form too: build_module reads it as it is.
    desc = ["fixed", {"n_transport": 8, "n_qps": 2}]
    job = JobSpec(name="mpi", module=desc)
    assert job.module is desc
    assert job.as_dict()["module"] == desc
    assert JobSpec.from_dict(job.as_dict()).module == desc


def test_packed_placement_consecutive():
    jobs = [JobSpec(name="a", n_ranks=3), JobSpec(name="b", n_ranks=2)]
    placement = place_jobs(jobs, TOPO, "packed")
    assert placement == {"a": [0, 1, 2], "b": [3, 4]}


def test_spread_placement_straddles_groups():
    jobs = [JobSpec(name="a", n_ranks=2), JobSpec(name="b", n_ranks=2)]
    placement = place_jobs(jobs, TOPO, "spread")
    for nodes in placement.values():
        groups = {TOPO.group_of(n) for n in nodes}
        assert len(groups) == 2, placement


def test_random_placement_seeded():
    jobs = [JobSpec(name="a", n_ranks=4), JobSpec(name="b", n_ranks=4)]
    assert place_jobs(jobs, TOPO, "random", seed=1) \
        == place_jobs(jobs, TOPO, "random", seed=1)
    assert place_jobs(jobs, TOPO, "random", seed=1) \
        != place_jobs(jobs, TOPO, "random", seed=2)


def test_placements_always_disjoint():
    jobs = [JobSpec(name=f"j{i}", n_ranks=2) for i in range(4)]
    for policy in ("packed", "spread", "random"):
        placement = place_jobs(jobs, TOPO, policy, seed=5)
        nodes = [n for ns in placement.values() for n in ns]
        assert len(nodes) == len(set(nodes)) == 8


def test_placement_errors():
    with pytest.raises(ConfigError):
        place_jobs([JobSpec(name="a", n_ranks=9)], TOPO, "packed")
    with pytest.raises(ConfigError):
        place_jobs([JobSpec(name="a"), JobSpec(name="a")], TOPO, "packed")
    with pytest.raises(ConfigError):
        place_jobs([JobSpec(name="a")], TOPO, "diagonal")
