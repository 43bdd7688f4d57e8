"""Tests for the Netgauge-style measurement on the simulated fabric."""

import pytest

from repro.config import NIAGARA
from repro.model.netgauge import measure_loggp
from repro.units import KiB


@pytest.fixture(scope="module")
def table():
    return measure_loggp(sizes=[256, 4 * KiB, 256 * KiB], rounds=4, burst=6)


def test_table_has_requested_sizes(table):
    assert table.sizes == [256, 4 * KiB, 256 * KiB]


def test_parameters_positive(table):
    for s in table.sizes:
        p = table.lookup(s)
        assert p.L > 0
        assert p.o_s > 0
        assert p.o_r > 0
        assert p.g > 0
        assert p.G > 0


def test_latency_plausible(table):
    """Measured small-message latency should be near the configured
    propagation latency (sub-3us including software)."""
    p = table.lookup(256)
    assert 0.1e-6 < p.L < 3e-6


def test_large_message_bandwidth_near_line_rate(table):
    p = table.lookup(256 * KiB)
    # within a factor of 2 of the configured line rate (protocol slope
    # artifacts allowed, as on real netgauge runs)
    assert p.bandwidth > NIAGARA.nic.line_rate / 2
    assert p.bandwidth < NIAGARA.nic.line_rate * 2


def test_gap_grows_with_size(table):
    """Wire serialization dominates g at large sizes."""
    assert table.lookup(256 * KiB).g > table.lookup(256).g


def test_rndv_receiver_overhead_includes_transfer(table):
    """o_r for rendezvous sizes is dominated by the receiver-driven
    get — the same through-MPI measurement artifact the paper's
    Netgauge numbers carry."""
    assert table.lookup(256 * KiB).o_r > table.lookup(4 * KiB).o_r


def test_measurement_is_deterministic():
    t1 = measure_loggp(sizes=[4 * KiB], rounds=3, burst=4)
    t2 = measure_loggp(sizes=[4 * KiB], rounds=3, burst=4)
    p1, p2 = t1.lookup(4 * KiB), t2.lookup(4 * KiB)
    assert p1.L == p2.L
    assert p1.g == p2.g
    assert p1.o_r == p2.o_r
