"""Tests for fabric topologies."""

import pytest

from repro.errors import ConfigError
from repro.ib.fabric import Fabric
from repro.ib.topology import (
    DragonflyPlus,
    NIAGARA_TOPOLOGY,
    RoutedDragonflyPlus,
    UniformTopology,
)
from repro.sim import Environment
from repro.units import us


def test_uniform_topology():
    topo = UniformTopology(pair_latency=us(1))
    assert topo.latency(0, 99) == us(1)
    with pytest.raises(ConfigError):
        UniformTopology(pair_latency=-1)


def test_dragonfly_tiers():
    topo = DragonflyPlus(nodes_per_leaf=4, leaves_per_group=2,
                         same_leaf_latency=us(0.3),
                         intra_group_latency=us(0.6),
                         inter_group_latency=us(1.0))
    # nodes 0-3 leaf 0, 4-7 leaf 1 (group 0); 8-11 leaf 2 (group 1)
    assert topo.latency(0, 3) == us(0.3)     # same leaf
    assert topo.latency(0, 4) == us(0.6)     # same group, other leaf
    assert topo.latency(0, 8) == us(1.0)     # other group
    assert topo.latency(8, 0) == us(1.0)     # symmetric


def test_dragonfly_geometry_helpers():
    topo = DragonflyPlus(nodes_per_leaf=4, leaves_per_group=2)
    assert topo.nodes_per_group == 8
    assert topo.leaf_of(5) == 1
    assert topo.group_of(9) == 1


def test_dragonfly_validation():
    with pytest.raises(ConfigError):
        DragonflyPlus(nodes_per_leaf=0)
    with pytest.raises(ConfigError):
        DragonflyPlus(same_leaf_latency=us(2), intra_group_latency=us(1))


def test_fabric_uses_topology():
    env = Environment()
    topo = DragonflyPlus(nodes_per_leaf=2, leaves_per_group=2,
                         same_leaf_latency=us(0.3),
                         intra_group_latency=us(0.6),
                         inter_group_latency=us(1.0))
    fabric = Fabric(env, topology=topo)
    for n in range(6):
        fabric.add_node(n)
    assert fabric.latency(0, 1) == us(0.3)
    assert fabric.latency(0, 2) == us(0.6)
    assert fabric.latency(0, 4) == us(1.0)
    # Loopback still wins.
    assert fabric.latency(3, 3) == fabric.config.link.loopback_latency


def test_topology_changes_end_to_end_latency():
    """Same transfer, farther nodes, later arrival."""
    from repro.mem import Buffer
    from repro.mpi import Cluster

    def transfer_time(src, dst):
        topo = DragonflyPlus(nodes_per_leaf=2, leaves_per_group=2,
                             same_leaf_latency=us(0.3),
                             intra_group_latency=us(0.6),
                             inter_group_latency=us(1.5))
        cluster = Cluster(n_nodes=8, topology=topo)
        procs = [cluster.add_process(node_id=n) for n in (src, dst)]
        sbuf, rbuf = Buffer(512, backed=False), Buffer(512, backed=False)
        done = {}

        def sender(proc):
            yield from proc.send(sbuf, dest=1, tag=1)

        def receiver(proc):
            yield from proc.recv(rbuf, source=0, tag=1)
            done["t"] = proc.env.now

        cluster.spawn(sender(procs[0]))
        cluster.spawn(receiver(procs[1]))
        cluster.run()
        return done["t"]

    assert transfer_time(0, 1) < transfer_time(0, 7)


def test_niagara_topology_defaults():
    assert NIAGARA_TOPOLOGY.nodes_per_group == 192
    assert "dragonfly" in NIAGARA_TOPOLOGY.describe()


def test_describe_names_geometry():
    assert UniformTopology(pair_latency=us(1)).describe() == "uniform(1e-06)"
    flat = DragonflyPlus(nodes_per_leaf=4, leaves_per_group=3)
    assert flat.describe() == \
        "dragonfly+(nodes_per_leaf=4, leaves_per_group=3, groups=*)"
    routed = RoutedDragonflyPlus(nodes_per_leaf=2, leaves_per_group=2,
                                 groups=3)
    assert routed.describe() == \
        "dragonfly+routed(nodes_per_leaf=2, leaves_per_group=2, groups=3)"


def test_latency_only_topologies_do_not_route():
    assert UniformTopology().routed is False
    assert UniformTopology().route(0, 1) is None
    assert DragonflyPlus().route(0, 999) is None


def test_routed_dragonfly_routes():
    topo = RoutedDragonflyPlus(nodes_per_leaf=2, leaves_per_group=2,
                               groups=2)
    assert topo.routed is True
    assert topo.n_nodes == 8
    assert topo.route(0, 1) == ()          # same leaf: endpoint NICs only
    assert topo.route(0, 2) == (("leaf-up", 0), ("leaf-down", 1))
    assert topo.route(0, 4) == (("leaf-up", 0), ("global", 0, 1),
                                ("leaf-down", 2))
    assert topo.route(4, 0) == (("leaf-up", 2), ("global", 1, 0),
                                ("leaf-down", 0))
    # Every hop of every route names a link the fabric builds.
    keys = set(topo.link_keys())
    assert len(keys) == 10
    for src in range(8):
        for dst in range(8):
            assert set(topo.route(src, dst)) <= keys


def test_routed_dragonfly_validation():
    topo = RoutedDragonflyPlus(nodes_per_leaf=2, leaves_per_group=2,
                               groups=2)
    with pytest.raises(ConfigError):
        topo.check_node(8)
    with pytest.raises(ConfigError):
        topo.route(0, 8)
    with pytest.raises(ConfigError):
        RoutedDragonflyPlus(groups=0)
    with pytest.raises(ConfigError):
        RoutedDragonflyPlus(arbitration=-1.0)
