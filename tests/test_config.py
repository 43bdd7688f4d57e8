"""Tests for the configuration layer."""

import dataclasses

import pytest

from repro.config import LinkConfig, NIAGARA
from repro.errors import ConfigError
from repro.units import KiB


def test_default_config_validates():
    NIAGARA.validate()


def test_nic_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.nic, qp_rate=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(
            NIAGARA.nic, qp_rate=NIAGARA.nic.line_rate * 2).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.nic, mtu=64).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.nic, max_outstanding_rdma=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.nic, wire_chunk=1024).validate()


def test_link_validation():
    with pytest.raises(ConfigError):
        LinkConfig(latency=-1).validate()


def test_host_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.host, cores_per_node=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.host, memcpy_rate=0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(
            NIAGARA.host, oversubscription_penalty=0.5).validate()


def test_ucx_protocol_selection():
    ucx = NIAGARA.ucx
    assert ucx.protocol_for(64).name == "inline"
    assert ucx.protocol_for(ucx.inline_max).name == "inline"
    assert ucx.protocol_for(ucx.inline_max + 1).name == "eager-bcopy"
    assert ucx.protocol_for(1 * KiB).name == "eager-bcopy"
    assert ucx.protocol_for(1 * KiB + 1).name == "eager-zcopy"
    assert ucx.protocol_for(8 * KiB).name == "eager-zcopy"
    assert ucx.protocol_for(8 * KiB + 1).name == "rndv"


def test_protocol_properties():
    ucx = NIAGARA.ucx
    assert ucx.protocol_for(512).copies          # bcopy stages
    assert not ucx.protocol_for(4 * KiB).copies  # zcopy does not
    assert ucx.protocol_for(1 << 20).rendezvous
    assert not ucx.protocol_for(64).rendezvous


def test_protocol_tiers_are_constants_of_the_config():
    # protocol_for runs four times per baseline message: the tier objects
    # are built once per config, and a changed config gets its own.
    ucx = NIAGARA.ucx
    assert ucx.protocol_for(64) is ucx.protocol_for(100)
    assert ucx.protocol_for(1 << 20) is ucx.protocol_for(1 << 24)
    slower = dataclasses.replace(ucx, t_rndv=2 * ucx.t_rndv)
    assert slower.protocol_for(1 << 20).t_send == 2 * ucx.t_rndv
    assert ucx.protocol_for(1 << 20).t_send == ucx.t_rndv
    assert slower == dataclasses.replace(ucx, t_rndv=2 * ucx.t_rndv)
    assert hash(ucx) == hash(dataclasses.replace(ucx))


def test_ucx_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(
            NIAGARA.ucx, inline_max=4 * KiB, eager_bcopy_max=1024).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.ucx, n_lanes=0).validate()


def test_partitioned_validation():
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.part, timer_delta=-1.0).validate()
    with pytest.raises(ConfigError):
        dataclasses.replace(NIAGARA.part, t_rx_wr=-1.0).validate()


def test_cluster_validation_cascades():
    bad = NIAGARA.with_changes(
        nic=dataclasses.replace(NIAGARA.nic, mtu=1))
    with pytest.raises(ConfigError):
        bad.validate()
    with pytest.raises(ConfigError):
        NIAGARA.with_changes(seed=-1).validate()


def test_with_changes_preserves_rest():
    changed = NIAGARA.with_changes(seed=99)
    assert changed.seed == 99
    assert changed.nic == NIAGARA.nic
    assert NIAGARA.seed != 99  # original untouched


def test_configs_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        NIAGARA.seed = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        NIAGARA.nic.mtu = 1024


def test_niagara_calibration_sanity():
    """EDR-like numbers: ~12GB/s wire, ~us latency, 40 cores."""
    assert 10e9 < NIAGARA.nic.line_rate < 14e9
    assert NIAGARA.nic.qp_rate < NIAGARA.nic.line_rate
    assert 0.1e-6 < NIAGARA.link.latency < 5e-6
    assert NIAGARA.host.cores_per_node == 40
    assert NIAGARA.nic.max_outstanding_rdma == 16
    assert NIAGARA.nic.mtu == 4 * KiB
