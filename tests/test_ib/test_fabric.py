"""Tests for fabric topology management."""

import pytest

from repro.config import NIAGARA
from repro.errors import ConfigError
from repro.ib.fabric import Fabric
from repro.sim import Environment


def test_add_nodes_sequential_ids():
    env = Environment()
    fabric = Fabric(env)
    n0 = fabric.add_node()
    n1 = fabric.add_node()
    assert n0.node_id == 0
    assert n1.node_id == 1
    assert fabric.n_nodes == 2


def test_explicit_node_id():
    env = Environment()
    fabric = Fabric(env)
    nic = fabric.add_node(7)
    assert fabric.nic_at(7) is nic


def test_duplicate_node_rejected():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node(0)
    with pytest.raises(ConfigError):
        fabric.add_node(0)


def test_unknown_node_rejected():
    env = Environment()
    fabric = Fabric(env)
    with pytest.raises(ConfigError):
        fabric.nic_at(3)


def test_default_latency_uniform():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node(0)
    fabric.add_node(1)
    assert fabric.latency(0, 1) == NIAGARA.link.latency
    assert fabric.latency(1, 0) == NIAGARA.link.latency


def test_loopback_latency():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node(0)
    assert fabric.latency(0, 0) == NIAGARA.link.loopback_latency


def test_latency_override_symmetric():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node(0)
    fabric.add_node(1)
    fabric.set_latency(0, 1, 5e-6)
    assert fabric.latency(0, 1) == 5e-6
    assert fabric.latency(1, 0) == 5e-6


def test_negative_latency_rejected():
    env = Environment()
    fabric = Fabric(env)
    with pytest.raises(ConfigError):
        fabric.set_latency(0, 1, -1e-6)


def test_set_latency_rejects_unknown_nodes():
    env = Environment()
    fabric = Fabric(env)
    fabric.add_node(0)
    with pytest.raises(ConfigError, match="no node 9"):
        fabric.set_latency(0, 9, 5e-6)
    with pytest.raises(ConfigError, match="no node 9"):
        fabric.set_latency(9, 0, 5e-6)
    # A rejected call leaves no partial override behind.
    fabric.add_node(9)
    assert fabric.latency(0, 9) == NIAGARA.link.latency


def test_set_latency_override_composes_with_topology():
    from repro.ib.topology import DragonflyPlus

    env = Environment()
    topo = DragonflyPlus(nodes_per_leaf=2, leaves_per_group=2)
    fabric = Fabric(env, topology=topo)
    for n in (0, 1, 4):
        fabric.add_node(n)
    fabric.set_latency(0, 4, 9e-6)
    assert fabric.latency(0, 4) == 9e-6       # override wins
    assert fabric.latency(4, 0) == 9e-6       # both directions
    assert fabric.latency(0, 1) == topo.latency(0, 1)  # others untouched
