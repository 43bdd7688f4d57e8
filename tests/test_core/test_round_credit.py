"""Tests for the round-credit gate (remote buffer readiness).

The sender may only put round-N data on the wire once the receiver's
``MPI_Start`` for round N has re-armed the buffers — otherwise a fast
sender overwrites data the application may still be reading, and the
pre-posted receive queues underflow.  This is the remote-readiness
problem behind the MPI Forum's ``MPI_Pbuf_prepare`` proposal
(Section IV-A); the reproduction closes it with a Start-granted credit.
"""

import numpy as np
import pytest

from repro.core import FixedAggregation, NativeSpec, TimerPLogGPAggregator
from repro.mem import PartitionedBuffer
from repro.model.tables import NIAGARA_LOGGP
from repro.mpi import Cluster
from repro.mpi.persist_module import PersistSpec
from repro.units import KiB, ms, us


def back_to_back_rounds(spec_factory, n_parts=16, psize=128, rounds=6,
                        receiver_dwell=0.0):
    """Zero-compute rounds: the sender races as far ahead as allowed.

    ``receiver_dwell`` holds the receiver between Wait and its next
    Start (simulating the application reading the buffer), widening the
    window a rogue sender would corrupt.
    """
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, psize)
    rbuf = PartitionedBuffer(n_parts, psize)
    seen = []

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec_factory())
        for rnd in range(rounds):
            sbuf.fill_pattern(seed=rnd + 1)
            yield from proc.start(req)
            for i in range(n_parts):
                yield from proc.pready(req, i)
            yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec_factory())
        for rnd in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)
            # Read the buffer "slowly": nothing may change under us.
            before = rbuf.data.copy()
            if receiver_dwell:
                yield proc.env.timeout(receiver_dwell)
            assert np.array_equal(rbuf.data, before), f"round {rnd} corrupted"
            seen.append(bytes(rbuf.data[:16]))

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    # Every round delivered its own distinct pattern.
    assert len(set(seen)) == rounds


SPECS = [
    ("persist", PersistSpec),
    ("native-noagg", lambda: NativeSpec(FixedAggregation(16, 2))),
    ("native-agg", lambda: NativeSpec(FixedAggregation(2, 2))),
    ("native-timer", lambda: NativeSpec(TimerPLogGPAggregator(
        NIAGARA_LOGGP, delay=ms(4), delta=us(5)))),
]


@pytest.mark.parametrize("name,spec", SPECS)
def test_back_to_back_rounds_stay_correct(name, spec):
    back_to_back_rounds(spec)


@pytest.mark.parametrize("name,spec", SPECS)
def test_buffer_stable_while_receiver_reads(name, spec):
    """The sender must not overwrite the buffer during the window
    between the receiver's Wait and its next Start."""
    back_to_back_rounds(spec, receiver_dwell=50e-6)


def test_rendezvous_partitions_respect_credit():
    """Deferred RTS headers (rendezvous tier) flush correctly too."""
    back_to_back_rounds(PersistSpec, n_parts=4, psize=64 * KiB, rounds=4,
                        receiver_dwell=100e-6)


@pytest.mark.parametrize("n_transport,n_qps", [(1, 1), (2, 1), (4, 1),
                                               (1, 2), (4, 2)])
def test_no_premature_completion_during_post(n_transport, n_qps):
    """Regression: the send-side completion check must stay false while
    a WR is between sent-marking and the actual post (inside the
    WR-build cost).  The original bug let a round complete mid-flush,
    re-arm, and livelock with acked > posted — deterministic at
    (T=1, QP=1, 4x16KiB, back-to-back rounds)."""
    back_to_back_rounds(
        lambda: NativeSpec(FixedAggregation(n_transport, n_qps)),
        n_parts=4, psize=16 * KiB, rounds=4)


def test_credit_defers_then_flushes():
    """With a dwelling receiver, the sender's posts defer on the credit
    and flush once it arrives — nothing is lost, nothing early."""
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(4, 1 * KiB, backed=False)
    rbuf = PartitionedBuffer(4, 1 * KiB, backed=False)
    holder = {}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0,
                              module=NativeSpec(FixedAggregation(4, 1)))
        holder["req"] = req
        for rnd in range(2):
            yield from proc.start(req)
            for i in range(4):
                yield from proc.pready(req, i)
            yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0,
                              module=NativeSpec(FixedAggregation(4, 1)))
        for rnd in range(2):
            if rnd:
                yield proc.env.timeout(100e-6)  # dwell before re-arming
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    module = holder["req"].module
    assert module._credit.armed_round >= 2
    assert not module._credit.deferred
    assert module.total_wrs_posted == 8  # 4 per round, none doubled
