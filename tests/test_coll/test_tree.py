"""Tests for partitioned broadcast/allreduce over binomial trees."""

import numpy as np
import pytest

from repro.errors import MPIError, PartitionError
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.coll.tree import _binomial_children, _binomial_parent

N_PARTS = 4
PART_SIZE = 256


def run_world(world, program):
    cluster = Cluster(n_nodes=world)
    procs = cluster.ranks(world)
    for proc in procs:
        cluster.spawn(program(proc))
    cluster.run()


# ---------------------------------------------------------------------------
# Pbcast
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("world", [1, 2, 3, 5, 7, 8])
def test_pbcast_delivers_roots_bytes(world):
    root = 0
    received = {}

    def program(proc):
        buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=True)
        if proc.rank == root:
            buf.fill_pattern(42)
        coll = proc.pbcast_init(buf, world, root=root)
        for _ in range(2):
            yield from proc.pcoll_start(coll)
            if proc.rank == root:
                for p in range(N_PARTS):
                    yield from proc.pcoll_pready(coll, p)
            yield from proc.pcoll_wait(coll)
        received[proc.rank] = buf.data.copy()

    run_world(world, program)
    expect = PartitionedBuffer(N_PARTS, PART_SIZE, backed=True)
    expect.fill_pattern(42)
    for rank in range(world):
        assert np.array_equal(received[rank], expect.data), f"rank {rank}"


def test_pbcast_pready_is_root_only():
    errors = {}

    def program(proc):
        buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=False)
        coll = proc.pbcast_init(buf, 2, root=0)
        yield from proc.pcoll_start(coll)
        if proc.rank == 1:
            try:
                yield from proc.pcoll_pready(coll, 0)
            except MPIError:
                errors[proc.rank] = True
        else:
            for p in range(N_PARTS):
                yield from proc.pcoll_pready(coll, p)
        yield from proc.pcoll_wait(coll)

    run_world(2, program)
    assert errors == {1: True}


def test_pbcast_parrived_tracks_pipeline():
    """A non-root rank sees partitions arrive over time, not at once."""
    seen = []

    def program(proc):
        buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=False)
        coll = proc.pbcast_init(buf, 2, root=0)
        yield from proc.pcoll_start(coll)
        if proc.rank == 0:
            for p in range(N_PARTS):
                yield proc.env.timeout(20e-6)
                yield from proc.pcoll_pready(coll, p)
        else:
            arrived = yield from coll.parrived(None, N_PARTS - 1)
            seen.append(arrived)
        yield from proc.pcoll_wait(coll)
        if proc.rank == 1:
            arrived = yield from coll.parrived(None, N_PARTS - 1)
            seen.append(arrived)

    run_world(2, program)
    assert seen == [False, True]


def test_pbcast_bad_partition_raises():
    cluster = Cluster(n_nodes=1)
    proc = cluster.ranks(1)[0]
    buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=False)
    coll = proc.pbcast_init(buf, 1)
    with pytest.raises(PartitionError):
        list(coll.pready(N_PARTS))


def test_tree_validation():
    cluster = Cluster(n_nodes=1)
    proc = cluster.ranks(1)[0]
    buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=False)
    with pytest.raises(MPIError):
        proc.pbcast_init(buf, 0)
    with pytest.raises(MPIError):
        proc.pbcast_init(buf, 2, root=2)
    with pytest.raises(MPIError):
        proc.pbcast_init(buf, 0, root=0)


# ---------------------------------------------------------------------------
# Pallreduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("world", [1, 2, 3, 5, 7, 8])
def test_pallreduce_sums_everywhere(world):
    results = {}

    def program(proc):
        buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=True)
        coll = proc.pallreduce_init(buf, world)
        for _ in range(2):
            buf.data[:] = proc.rank + 1
            yield from proc.pcoll_start(coll)
            for p in range(N_PARTS):
                yield from proc.pcoll_pready(coll, p)
            yield from proc.pcoll_wait(coll)
        results[proc.rank] = buf.data.copy()

    run_world(world, program)
    expected = sum(range(1, world + 1))
    for rank in range(world):
        assert np.all(results[rank] == expected), f"rank {rank}"


def test_pallreduce_custom_op():
    world = 3
    results = {}

    def op(dst, src):
        np.maximum(dst, src, out=dst)

    def program(proc):
        buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=True)
        coll = proc.pallreduce_init(buf, world, op=op)
        buf.data[:] = proc.rank * 10
        yield from proc.pcoll_start(coll)
        for p in range(N_PARTS):
            yield from proc.pcoll_pready(coll, p)
        yield from proc.pcoll_wait(coll)
        results[proc.rank] = buf.data.copy()

    run_world(world, program)
    for rank in range(world):
        assert np.all(results[rank] == 20), f"rank {rank}"


def test_pallreduce_pready_rejects_neighbor():
    cluster = Cluster(n_nodes=1)
    proc = cluster.ranks(1)[0]
    buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=False)
    coll = proc.pallreduce_init(buf, 1)
    with pytest.raises(MPIError, match="cannot be"):
        list(coll.pready(0, neighbor=2))


def test_pallreduce_inactive_wait_returns():
    """MPI semantics: Wait on a never-started persistent op is a no-op."""
    done = []

    def program(proc):
        buf = PartitionedBuffer(N_PARTS, PART_SIZE, backed=False)
        coll = proc.pallreduce_init(buf, 1)
        yield from proc.pcoll_wait(coll)
        done.append(proc.env.now)

    run_world(1, program)
    assert done == [0.0]


def test_binomial_tree_consistency():
    """parent(child) == rank, for every rank/root/world combination."""
    for world in (1, 2, 3, 4, 5, 8, 13):
        for root in range(world):
            seen = set()
            for rank in range(world):
                for child in _binomial_children(rank, root, world):
                    assert _binomial_parent(child, root, world) == rank
                    assert child not in seen
                    seen.add(child)
            # every non-root rank is exactly one rank's child
            assert seen == {r for r in range(world) if r != root}


def test_binomial_root_has_no_parent():
    assert _binomial_parent(3, 3, 8) is None
