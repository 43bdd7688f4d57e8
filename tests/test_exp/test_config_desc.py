"""Whole-config overrides travel through scenarios as JSON descriptors."""

from dataclasses import asdict, replace

import pytest

from repro.config import NIAGARA
from repro.exp.modules import build_config


def test_round_trip_is_lossless():
    assert build_config(asdict(NIAGARA)) == NIAGARA
    assert build_config(None) is None


def test_non_default_sections_survive():
    cfg = replace(NIAGARA, nic=replace(NIAGARA.nic, n_ports=2), seed=7)
    rebuilt = build_config(asdict(cfg))
    assert rebuilt.nic.n_ports == 2
    assert rebuilt.seed == 7
    assert rebuilt == cfg


def test_build_config_validates():
    desc = asdict(NIAGARA)
    desc["seed"] = -1
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        build_config(desc)
