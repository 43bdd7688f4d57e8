"""Tests for the MPI Partitioned API: lifecycle, semantics, errors."""

import numpy as np
import pytest

from repro.core import FixedAggregation, NativeSpec
from repro.errors import (
    MatchingError,
    PartitionError,
    RequestError,
)
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.mpi.persist_module import PersistSpec
from repro.mpi.request import PartitionedState
from repro.runtime import ComputePhase, NoNoise, WorkerTeam
from repro.units import KiB

ALL_SPECS = [
    ("persist", PersistSpec),
    ("native", lambda: NativeSpec(FixedAggregation(2, 2))),
    ("native-noagg", lambda: NativeSpec(FixedAggregation(8, 1))),
]


def run_roundtrip(spec_factory, n_parts=8, psize=4 * KiB, rounds=1,
                  use_parrived=False):
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, psize)
    rbuf = PartitionedBuffer(n_parts, psize)
    outcome = {}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec_factory())
        for rnd in range(rounds):
            sbuf.fill_pattern(seed=rnd)
            yield from proc.start(req)
            for i in range(n_parts):
                yield from proc.pready(req, i)
            yield from proc.wait_partitioned(req)
        outcome["send_done"] = proc.env.now

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec_factory())
        for rnd in range(rounds):
            yield from proc.start(req)
            if use_parrived:
                for i in range(n_parts):
                    while not (yield from proc.parrived(req, i)):
                        pass
            yield from proc.wait_partitioned(req)
            assert np.array_equal(rbuf.data, rbuf.expected_pattern(
                0, rbuf.nbytes, seed=rnd))
        outcome["recv_done"] = proc.env.now

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    assert "send_done" in outcome and "recv_done" in outcome
    return outcome


@pytest.mark.parametrize("name,spec", ALL_SPECS)
def test_single_round_roundtrip(name, spec):
    run_roundtrip(spec)


@pytest.mark.parametrize("name,spec", ALL_SPECS)
def test_multi_round_reuse(name, spec):
    """Persistent requests restart cleanly and move fresh data."""
    run_roundtrip(spec, rounds=4)


@pytest.mark.parametrize("name,spec", ALL_SPECS)
def test_parrived_polling(name, spec):
    run_roundtrip(spec, use_parrived=True)


def test_pready_out_of_order_indices():
    """Partitions may be marked ready in any order."""
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    n = 8
    sbuf = PartitionedBuffer(n, 1 * KiB)
    rbuf = PartitionedBuffer(n, 1 * KiB)
    sbuf.fill_pattern(seed=7)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0,
                              module=NativeSpec(FixedAggregation(4, 2)))
        yield from proc.start(req)
        for i in (5, 0, 7, 2, 1, 6, 3, 4):
            yield from proc.pready(req, i)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0,
                              module=NativeSpec(FixedAggregation(4, 2)))
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    assert np.array_equal(rbuf.data, sbuf.data)


def test_pready_before_start_rejected():
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 256)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        with pytest.raises(RequestError):
            yield from proc.pready(req, 0)

    p = cluster.spawn(sender(s_proc))
    cluster.run(until=p)


def test_pready_bad_partition_rejected():
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 256)
    rbuf = PartitionedBuffer(4, 256)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        yield from proc.start(req)
        with pytest.raises(PartitionError):
            yield from proc.pready(req, 4)
        # finish the round cleanly
        for i in range(4):
            yield from proc.pready(req, i)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()


@pytest.mark.parametrize("started, error", [(False, RequestError),
                                            (True, PartitionError)])
def test_pready_errors_fail_the_worker_team_round(started, error):
    """``MPI_Pready`` checks its request when called, so a bad Pready
    in a worker thread fails ``WorkerTeam.run_round``'s event, which
    raises in the rank that yielded it."""
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 256, backed=False)
    rbuf = PartitionedBuffer(4, 256, backed=False)
    team = WorkerTeam.on(cluster, 4, "noise.sender")
    phase = ComputePhase(compute=1e-6, noise=NoNoise())
    raised = []

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        if started:
            yield from proc.start(req)
        # Thread 3 readies partition 4 of 4 (out of range once started).
        with pytest.raises(error):
            yield team.run_round(phase, lambda tid: proc.pready(req, tid + 1))
        raised.append(error)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        if started:
            yield from proc.start(req)

    p = cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run(until=p)
    assert raised == [error]


def test_double_start_rejected():
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 256)
    rbuf = PartitionedBuffer(4, 256)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        yield from proc.start(req)
        with pytest.raises(RequestError):
            yield from proc.start(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        yield from proc.start(req)

    p = cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run(until=p)


def test_pready_on_recv_request_rejected():
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 256)
    rbuf = PartitionedBuffer(4, 256)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        yield from proc.start(req)
        for i in range(4):
            yield from proc.pready(req, i)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        yield from proc.start(req)
        with pytest.raises(RequestError):
            yield from proc.pready(req, 0)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()


def test_size_mismatch_raises_at_match():
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    s_proc.psend_init(PartitionedBuffer(4, 256), dest=1, tag=0,
                      module=PersistSpec())
    with pytest.raises(MatchingError, match="size mismatch"):
        r_proc.precv_init(PartitionedBuffer(4, 512), source=0, tag=0,
                          module=PersistSpec())


def test_partition_count_mismatch_raises():
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    s_proc.psend_init(PartitionedBuffer(4, 512), dest=1, tag=0,
                      module=PersistSpec())
    with pytest.raises(MatchingError, match="partition counts"):
        r_proc.precv_init(PartitionedBuffer(8, 256), source=0, tag=0,
                          module=PersistSpec())


def test_module_mismatch_raises():
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    s_proc.psend_init(PartitionedBuffer(4, 256), dest=1, tag=0,
                      module=PersistSpec())
    with pytest.raises(MatchingError, match="module mismatch"):
        r_proc.precv_init(PartitionedBuffer(4, 256), source=0, tag=0,
                          module=NativeSpec(FixedAggregation(2, 1)))


def test_matching_is_fifo_per_tag():
    """Two pairs on the same (src, dst, tag) match in posted order."""
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbufs = [PartitionedBuffer(4, 256) for _ in range(2)]
    rbufs = [PartitionedBuffer(4, 256) for _ in range(2)]
    sbufs[0].fill_pattern(seed=1)
    sbufs[1].fill_pattern(seed=2)

    def sender(proc):
        reqs = [proc.psend_init(b, dest=1, tag=0, module=PersistSpec())
                for b in sbufs]
        for req in reqs:
            yield from proc.start(req)
            for i in range(4):
                yield from proc.pready(req, i)
        for req in reqs:
            yield from proc.wait_partitioned(req)

    def receiver(proc):
        reqs = [proc.precv_init(b, source=0, tag=0, module=PersistSpec())
                for b in rbufs]
        for req in reqs:
            yield from proc.start(req)
        for req in reqs:
            yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    assert np.array_equal(rbufs[0].data, sbufs[0].data)
    assert np.array_equal(rbufs[1].data, sbufs[1].data)


def test_request_records_pready_and_arrival_times():
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 1 * KiB)
    rbuf = PartitionedBuffer(4, 1 * KiB)
    holder = {}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        holder["send"] = req
        yield from proc.start(req)
        for i in range(4):
            yield proc.env.timeout(1e-6)
            yield from proc.pready(req, i)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        holder["recv"] = req
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    send_req, recv_req = holder["send"], holder["recv"]
    assert all(t is not None for t in send_req.pready_times)
    assert send_req.pready_times == sorted(send_req.pready_times)
    assert all(t is not None for t in recv_req.arrival_times)
    assert recv_req.all_arrived
    assert send_req.state is PartitionedState.COMPLETE


def test_setup_is_asynchronous():
    """Init returns immediately; Start blocks until setup completes."""
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 256)
    rbuf = PartitionedBuffer(4, 256)
    times = {}

    def sender(proc):
        t0 = proc.env.now
        req = proc.psend_init(sbuf, dest=1, tag=0, module=PersistSpec())
        times["init_cost"] = proc.env.now - t0
        yield from proc.start(req)
        times["start_done"] = proc.env.now
        for i in range(4):
            yield from proc.pready(req, i)
        yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=PersistSpec())
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    assert times["init_cost"] == 0.0       # non-blocking init
    assert times["start_done"] >= 45e-6    # waited for QP exchange
