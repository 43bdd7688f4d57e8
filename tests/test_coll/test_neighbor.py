"""Tests for the persistent partitioned neighbor-alltoall."""

import numpy as np
import pytest

from repro.core import PLogGPAggregator
from repro.errors import MPIError, PartitionError, RequestError
from repro.mem import PartitionedBuffer
from repro.model.tables import NIAGARA_LOGGP
from repro.mpi import Cluster
from repro.units import KiB, ms

N_PARTS = 4
PART_SIZE = 1 * KiB


def make_bufs(neighbors, backed=True):
    return ({n: PartitionedBuffer(N_PARTS, PART_SIZE, backed=backed)
             for n in neighbors},
            {n: PartitionedBuffer(N_PARTS, PART_SIZE, backed=backed)
             for n in neighbors})


def run_ring(world=3, rounds=2, module_for=None):
    """All-neighbors exchange on a fully-connected world; returns the
    per-rank collectives plus an integrity failure count."""
    cluster = Cluster(n_nodes=world)
    procs = cluster.ranks(world)
    colls = {}
    failures = []

    def program(proc):
        others = [r for r in range(world) if r != proc.rank]
        send_bufs, recv_bufs = make_bufs(others)
        coll = proc.pneighbor_alltoall_init(send_bufs, recv_bufs,
                                            module_for)
        colls[proc.rank] = coll
        for it in range(rounds):
            for nbr, buf in send_bufs.items():
                buf.fill_pattern(it * 100 + proc.rank * 10 + nbr)
            yield from proc.pcoll_start(coll)
            for p in range(N_PARTS):
                yield from proc.pcoll_pready(coll, p)
            yield from proc.pcoll_wait(coll)
            for nbr, buf in recv_bufs.items():
                expect = buf.expected_pattern(
                    0, buf.nbytes, it * 100 + nbr * 10 + proc.rank)
                if not np.array_equal(buf.data, expect):
                    failures.append((proc.rank, nbr, it))

    for proc in procs:
        cluster.spawn(program(proc))
    cluster.run()
    return colls, failures


def test_multi_round_integrity_persist():
    _, failures = run_ring(world=3, rounds=3)
    assert failures == []


def test_multi_round_integrity_native():
    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))
    _, failures = run_ring(world=3, rounds=2, module_for=agg)
    assert failures == []


def test_mismatched_neighbor_sets_raise():
    cluster = Cluster(n_nodes=2)
    proc = cluster.ranks(2)[0]
    send_bufs, recv_bufs = make_bufs([1], backed=False)
    del recv_bufs[1]
    recv_bufs[0] = PartitionedBuffer(N_PARTS, PART_SIZE, backed=False)
    with pytest.raises(MPIError, match="neighbor sets differ"):
        proc.pneighbor_alltoall_init(send_bufs, recv_bufs, None)


def test_self_neighbor_raises():
    cluster = Cluster(n_nodes=2)
    proc = cluster.ranks(2)[0]
    send_bufs, recv_bufs = make_bufs([0], backed=False)
    with pytest.raises(MPIError, match="neighbor itself"):
        proc.pneighbor_alltoall_init(send_bufs, recv_bufs, None)


def test_pready_to_unknown_neighbor_raises():
    colls, _ = run_ring(world=2, rounds=1)
    coll = colls[0]
    with pytest.raises(MPIError, match="no outgoing edge"):
        list(coll.pready(0, neighbor=5))
    with pytest.raises(MPIError, match="no inbound edge"):
        list(coll.parrived(5, 0))


@pytest.mark.parametrize("started, error", [(False, RequestError),
                                            (True, PartitionError)])
def test_pready_errors_surface_through_the_collective(started, error):
    """The collective's ``yield from process.pready(...)`` raises the
    facade's errors: an inactive edge request, a partition out of range."""
    cluster = Cluster(n_nodes=2)
    raised = []

    def program(proc):
        send_bufs, recv_bufs = make_bufs([1 - proc.rank], backed=False)
        coll = proc.pneighbor_alltoall_init(send_bufs, recv_bufs, None)
        if started:
            yield from proc.pcoll_start(coll)
        if proc.rank == 0:
            with pytest.raises(error):
                yield from proc.pcoll_pready(coll, N_PARTS if started else 0)
            raised.append(error)

    runs = [cluster.spawn(program(proc)) for proc in cluster.ranks(2)]
    cluster.run(until=runs[0])
    assert raised == [error]


def test_edge_stats_cover_every_neighbor():
    colls, _ = run_ring(world=3, rounds=1)
    for rank, coll in colls.items():
        stats = coll.edge_stats()
        assert sorted(stats) == [r for r in range(3) if r != rank]
        for entry in stats.values():
            assert len(entry["pready_times"]) == N_PARTS
            assert entry["spread"] is not None and entry["spread"] >= 0
