"""Tests for the classic LogGP model and size-keyed tables."""

import pytest

from repro.errors import ConfigError
from repro.model import LogGPParams, LogGPTable, back_to_back_time, ptp_time
from repro.units import us


PARAMS = LogGPParams(L=us(1), o_s=us(2), o_r=us(3), g=us(4), G=1e-9)


def test_params_validation():
    with pytest.raises(ConfigError):
        LogGPParams(L=-1, o_s=0, o_r=0, g=0, G=0)


def test_bandwidth_is_inverse_of_G():
    assert PARAMS.bandwidth == pytest.approx(1e9)


def test_zero_G_bandwidth_infinite():
    p = LogGPParams(L=0, o_s=0, o_r=0, g=0, G=0)
    assert p.bandwidth == float("inf")


def test_ptp_time_formula():
    # o_s + (k-1)G + L + o_r
    t = ptp_time(PARAMS, 1001)
    assert t == pytest.approx(us(2) + 1000 * 1e-9 + us(1) + us(3))


def test_ptp_time_single_byte_has_no_wire_term():
    assert ptp_time(PARAMS, 1) == pytest.approx(us(6))


def test_ptp_negative_size_rejected():
    with pytest.raises(ValueError):
        ptp_time(PARAMS, -1)


def test_back_to_back_reduces_to_ptp_for_count_one():
    assert back_to_back_time(PARAMS, 500, 1) == pytest.approx(ptp_time(PARAMS, 500))


def test_back_to_back_two_messages_matches_figure2():
    # Fig. 2: o_s + 2G(k-1) + max(g, o_s, o_r) + L + o_r
    k = 1025
    t = back_to_back_time(PARAMS, k, 2)
    expected = us(2) + 2 * (k - 1) * 1e-9 + max(us(4), us(2), us(3)) + us(1) + us(3)
    assert t == pytest.approx(expected)


def test_back_to_back_monotone_in_count():
    times = [back_to_back_time(PARAMS, 4096, n) for n in (1, 2, 4, 8)]
    assert times == sorted(times)
    assert times[0] < times[-1]


def test_back_to_back_invalid_count():
    with pytest.raises(ValueError):
        back_to_back_time(PARAMS, 100, 0)


def test_table_lookup_floors_to_key():
    small = LogGPParams(L=1, o_s=1, o_r=1, g=1, G=1)
    big = LogGPParams(L=2, o_s=2, o_r=2, g=2, G=2)
    table = LogGPTable({1024: small, 65536: big})
    assert table.lookup(1024) is small
    assert table.lookup(65535) is small
    assert table.lookup(65536) is big
    assert table.lookup(10**9) is big


def test_table_lookup_below_smallest_uses_smallest():
    small = LogGPParams(L=1, o_s=1, o_r=1, g=1, G=1)
    table = LogGPTable({1024: small})
    assert table.lookup(1) is small
    assert table.lookup(0) is small


def test_table_constant():
    """A one-entry table answers every size with that entry."""
    table = LogGPTable({1: PARAMS})
    assert table.lookup(1) is PARAMS
    assert table.lookup(10**12) is PARAMS


def test_table_validation():
    with pytest.raises(ConfigError):
        LogGPTable({})
    with pytest.raises(ConfigError):
        LogGPTable({0: PARAMS})


def test_table_negative_lookup_rejected():
    table = LogGPTable({1: PARAMS})
    with pytest.raises(ValueError):
        table.lookup(-1)
