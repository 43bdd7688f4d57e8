"""Tests for the barrier and the binomial-tree helpers."""

import pytest

from repro.mpi import Cluster
from repro.mpi.collectives import (
    _binomial_children,
    _binomial_parent,
    barrier,
)


def run_collective(world, program):
    cluster = Cluster(n_nodes=world)
    procs = cluster.ranks(world)
    results = {}

    def wrapper(proc):
        value = yield from program(proc)
        results[proc.rank] = (value, proc.env.now)

    for proc in procs:
        cluster.spawn(wrapper(proc))
    cluster.run()
    return results


# ---------------------------------------------------------------------------
# binomial tree structure
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("world", [2, 3, 4, 5, 7, 8])
def test_barrier_synchronizes(world):
    def program(proc):
        # Stagger the arrivals: rank r arrives at r * 10us.
        yield proc.env.timeout(proc.rank * 10e-6)
        yield from barrier(proc, world)
        return proc.env.now

    results = run_collective(world, program)
    exit_times = [t for (v, t) in results.values()]
    latest_arrival = (world - 1) * 10e-6
    assert all(t >= latest_arrival for t in exit_times)
    # Exits cluster within a few fabric crossings of each other.
    assert max(exit_times) - min(exit_times) < 20e-6


def test_barrier_single_rank_is_noop():
    def program(proc):
        yield from barrier(proc, 1)
        return proc.env.now

    results = run_collective(1, program)
    assert results[0][1] == 0.0


def test_barrier_repeated():
    world = 4

    def program(proc):
        for _ in range(3):
            yield from barrier(proc, world)
        return proc.env.now

    run_collective(world, program)

