"""Unit tests for the wire model helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import NICConfig
from repro.ib.link import IngressPort, chunk_occupancy, injection_spacing, iter_chunks

CFG = NICConfig()


def test_iter_chunks_exact_division():
    assert list(iter_chunks(1024, 256)) == [256] * 4


def test_iter_chunks_remainder():
    assert list(iter_chunks(1000, 256)) == [256, 256, 256, 232]


def test_iter_chunks_small_message():
    assert list(iter_chunks(100, 256)) == [100]


def test_iter_chunks_zero_bytes_single_header_chunk():
    assert list(iter_chunks(0, 256)) == [0]


def test_chunk_occupancy_scales_with_bytes():
    small = chunk_occupancy(4096, CFG)
    large = chunk_occupancy(8192, CFG)
    assert large > small


def test_chunk_occupancy_includes_packet_cost():
    # zero-byte chunk still costs one packet time
    assert chunk_occupancy(0, CFG) == pytest.approx(CFG.t_pkt)


def test_packet_count_matches_mtu():
    nbytes = 3 * CFG.mtu + 1
    occ = chunk_occupancy(nbytes, CFG)
    expected = nbytes / CFG.line_rate + 4 * CFG.t_pkt
    assert occ == pytest.approx(expected)


def test_injection_spacing_slower_than_occupancy():
    """Per-QP rate cap: spacing uses qp_rate < line_rate."""
    nbytes = 64 * 1024
    assert injection_spacing(nbytes, CFG) > chunk_occupancy(nbytes, CFG)


def test_ingress_port_serializes():
    port = IngressPort()
    t1 = port.admit(egress_start=0.0, occupancy=1e-6, latency=1e-6, nbytes=100)
    t2 = port.admit(egress_start=0.0, occupancy=1e-6, latency=1e-6, nbytes=100)
    assert t1 == pytest.approx(2e-6)   # latency + occupancy
    assert t2 == pytest.approx(3e-6)   # queued behind the first
    assert port.bytes_received == 200


def test_ingress_port_idle_passthrough():
    port = IngressPort()
    port.admit(0.0, 1e-6, 1e-6, 10)
    # A much later chunk is not delayed by long-gone traffic.
    t2 = port.admit(1.0, 1e-6, 1e-6, 10)
    assert t2 == pytest.approx(1.0 + 2e-6)


@given(nbytes=st.integers(min_value=0, max_value=1 << 28))
def test_chunks_conserve_bytes(nbytes):
    assert sum(iter_chunks(nbytes, CFG.wire_chunk)) == nbytes


@given(nbytes=st.integers(min_value=1, max_value=1 << 28))
def test_chunk_sizes_bounded(nbytes):
    chunks = list(iter_chunks(nbytes, CFG.wire_chunk))
    assert all(0 < c <= CFG.wire_chunk for c in chunks)
    assert len(chunks) == math.ceil(nbytes / CFG.wire_chunk)
