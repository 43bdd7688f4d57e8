"""Tests for fabric topology management."""

from dataclasses import replace

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


def test_negative_latency_rejected():
    bad = NIAGARA.with_changes(
        link=replace(NIAGARA.link, latency=-1e-6))
    with pytest.raises(ConfigError):
        Fabric(Environment(), bad)
