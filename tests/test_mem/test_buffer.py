"""Tests for Buffer and PartitionedBuffer."""

import gc
import os
import sys

import numpy as np
import pytest

from repro.errors import PartitionError, ProtectionError
from repro.mem import Buffer, PartitionedBuffer
from repro.mem.buffer import MAP_BYTES
from repro.units import MiB


def test_backed_buffer_roundtrip():
    buf = Buffer(64)
    payload = np.arange(16, dtype=np.uint8)
    buf.write(8, payload)
    got = buf.read(8, 16)
    assert np.array_equal(got, payload)


def test_buffer_initial_zeroes():
    buf = Buffer(32)
    assert np.all(buf.data == 0)


def test_buffer_fill_value():
    buf = Buffer(16, fill=7)
    assert np.all(buf.data == 7)


def test_unbacked_buffer_has_no_data():
    buf = Buffer(128, backed=False)
    assert not buf.backed
    with pytest.raises(ProtectionError):
        _ = buf.data
    assert buf.read(0, 64) is None
    buf.write(0, None)  # no-op, no error


def test_unbacked_buffer_still_range_checks():
    buf = Buffer(128, backed=False)
    with pytest.raises(ProtectionError):
        buf.read(100, 64)


def test_out_of_range_read_rejected():
    buf = Buffer(32)
    with pytest.raises(ProtectionError):
        buf.read(16, 32)
    with pytest.raises(ProtectionError):
        buf.read(-1, 4)


def test_out_of_range_write_rejected():
    buf = Buffer(32)
    with pytest.raises(ProtectionError):
        buf.write(30, np.zeros(8, dtype=np.uint8))


def test_addresses_unique_and_nonoverlapping():
    a = Buffer(1024)
    b = Buffer(1024)
    assert a.addr + a.nbytes <= b.addr or b.addr + b.nbytes <= a.addr


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        Buffer(0)
    with pytest.raises(ValueError):
        Buffer(-5)


def test_fill_pattern_matches_expected():
    buf = Buffer(256)
    buf.fill_pattern(seed=3)
    assert np.array_equal(buf.read(50, 100), buf.expected_pattern(50, 100, seed=3))


def test_fill_pattern_seed_changes_content():
    a = Buffer(64)
    b = Buffer(64)
    a.fill_pattern(seed=1)
    b.fill_pattern(seed=2)
    assert not np.array_equal(a.data, b.data)


def test_partitioned_buffer_geometry():
    buf = PartitionedBuffer(n_partitions=8, partition_size=128)
    assert buf.nbytes == 1024
    assert buf.partition_offset(0) == 0
    assert buf.partition_offset(7) == 896


def test_partition_view_is_view():
    buf = PartitionedBuffer(4, 16)
    view = buf.partition_view(2)
    view[:] = 9
    assert np.all(buf.read(32, 16) == 9)


def test_range_offset_spans_partitions():
    buf = PartitionedBuffer(8, 64)
    offset, length = buf.range_offset(2, 3)
    assert offset == 128
    assert length == 192


def test_range_offset_full_buffer():
    buf = PartitionedBuffer(8, 64)
    assert buf.range_offset(0, 8) == (0, 512)


def test_invalid_partition_index():
    buf = PartitionedBuffer(4, 16)
    with pytest.raises(PartitionError):
        buf.partition_offset(4)
    with pytest.raises(PartitionError):
        buf.partition_offset(-1)


def test_invalid_partition_range():
    buf = PartitionedBuffer(4, 16)
    with pytest.raises(PartitionError):
        buf.range_offset(2, 3)
    with pytest.raises(PartitionError):
        buf.range_offset(0, 0)


def test_invalid_partition_geometry():
    with pytest.raises(PartitionError):
        PartitionedBuffer(0, 16)
    with pytest.raises(PartitionError):
        PartitionedBuffer(4, 0)


# -- large buffers are their own mapping -------------------------------------

@pytest.mark.parametrize("nbytes", [MAP_BYTES - 1, MAP_BYTES, 4 * MiB])
def test_buffers_behave_alike_on_both_sides_of_the_mapping_size(nbytes):
    buf = Buffer(nbytes)
    assert buf.data.dtype == np.uint8 and buf.data.shape == (nbytes,)
    assert not buf.data.any()
    payload = np.arange(256, dtype=np.uint8)
    buf.write(nbytes - 256, payload)
    buf.data[0] = 9
    view = buf.read(nbytes - 256, 256)
    assert np.array_equal(view, payload)
    view[0] = 77  # a read is a view, not a copy
    assert buf.data[nbytes - 256] == 77
    copy = buf.data.copy()
    copy[0] = 1
    assert buf.data[0] == 9 and copy.flags.owndata
    buf.fill_pattern(seed=3)
    assert np.array_equal(buf.data[100:164], buf.expected_pattern(100, 64, 3))


def test_mapped_buffer_honours_fill_and_outlives_its_views():
    buf = Buffer(MAP_BYTES, fill=7)
    assert np.all(buf.data == 7)
    view = buf.read(MAP_BYTES - 8, 8)
    del buf
    gc.collect()
    assert view.tolist() == [7] * 8  # the view keeps the mapping alive
    part = PartitionedBuffer(32, 8 * 1024)
    assert part.nbytes == 2 * MAP_BYTES and not part.data.any()
    part.partition_view(31)[:] = 5
    assert part.data[-8 * 1024:].tolist() == [5] * (8 * 1024)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm")
def test_dropped_rings_do_not_stay_resident():
    """A 16-rank cluster holds 48 endpoint rings of 4 MiB and touches a
    little of each.  From a heap block that costs whatever the allocator
    recycled: once glibc has raised its mmap threshold the rings are
    carved from freed heap and zero-filled by hand, 192 MiB resident by
    the third cluster.  From their own mapping they cost what they
    touch, every time."""
    def resident() -> int:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    gc.collect()
    before = resident()
    survivors = []
    for _ in range(3):
        rings = []
        for _ in range(48):
            rings.append(Buffer(4 * MiB))
            # What a cluster allocates between its rings and keeps: it
            # pins the freed ring below it in the heap for the next
            # round to recycle.  (Uninitialised, so not resident itself.)
            survivors.append(np.empty(100_000, dtype=np.uint8))
        for ring in rings:
            ring.data[0] = 1
        del rings, ring
        gc.collect()
    assert resident() - before < 16 * MiB
