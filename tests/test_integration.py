"""Cross-module integration and property-based tests.

Drives the full stack — simulated threads calling MPI Partitioned over
the verbs substrate — with randomized workloads, verifying byte-exact
delivery and timing invariants across every module/aggregator
combination.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    FixedAggregation,
    NativeSpec,
    PLogGPAggregator,
    TimerPLogGPAggregator,
)
from repro.core.scatter_gather import ScatterGatherSpec
from repro.mem import PartitionedBuffer
from repro.model.tables import NIAGARA_LOGGP
from repro.mpi import Cluster
from repro.mpi.persist_module import PersistSpec
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.units import KiB, ms, us


def drive(spec_factory, n_parts, psize, rounds, order_seed=0,
          compute=0.0, noise=0.0):
    """Full-stack run with shuffled pready order; returns buffers."""
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, psize)
    rbuf = PartitionedBuffer(n_parts, psize)
    rng = np.random.default_rng(order_seed)

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec_factory())
        team = WorkerTeam.on(cluster, n_parts, "noise")
        phase = ComputePhase(compute=compute,
                             noise=SingleThreadDelay(noise))
        for rnd in range(rounds):
            sbuf.fill_pattern(seed=rnd * 31 + 1)
            yield from proc.start(req)
            order = rng.permutation(n_parts)
            mapping = {tid: int(order[tid]) for tid in range(n_parts)}
            yield team.run_round(
                phase, lambda tid: proc.pready(req, mapping[tid]))
            yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec_factory())
        for rnd in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)
            expected = rbuf.expected_pattern(0, rbuf.nbytes, seed=rnd * 31 + 1)
            assert np.array_equal(rbuf.data, expected), f"round {rnd}"

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    return sbuf, rbuf


SPECS = {
    "persist": PersistSpec,
    "native-full-agg": lambda: NativeSpec(FixedAggregation(1, 1)),
    "native-no-agg": lambda: NativeSpec(FixedAggregation(16, 2)),
    "native-ploggp": lambda: NativeSpec(
        PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))),
    "native-timer": lambda: NativeSpec(
        TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=us(20))),
    "native-timer-sg": lambda: ScatterGatherSpec(
        TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=us(20))),
}


@pytest.mark.parametrize("name", list(SPECS))
def test_every_module_delivers_exact_bytes(name):
    drive(SPECS[name], n_parts=16, psize=4 * KiB, rounds=3,
          compute=ms(0.2), noise=0.05)


@given(
    n_parts=st.sampled_from([2, 4, 8, 16]),
    psize_exp=st.integers(min_value=7, max_value=16),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_workloads_persist(n_parts, psize_exp, order_seed):
    drive(PersistSpec, n_parts=n_parts, psize=2**psize_exp, rounds=2,
          order_seed=order_seed)


@given(
    n_parts=st.sampled_from([2, 4, 8, 16]),
    psize_exp=st.integers(min_value=7, max_value=16),
    n_transport_log=st.integers(min_value=0, max_value=4),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_workloads_native(n_parts, psize_exp, n_transport_log,
                                 order_seed):
    n_transport = min(2**n_transport_log, n_parts)
    drive(lambda: NativeSpec(FixedAggregation(n_transport, 2)),
          n_parts=n_parts, psize=2**psize_exp, rounds=2,
          order_seed=order_seed)


@given(
    delta_us=st.floats(min_value=1.0, max_value=200.0),
    order_seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_timer_deltas(delta_us, order_seed):
    def spec():
        return NativeSpec(TimerPLogGPAggregator(
            NIAGARA_LOGGP, delay=ms(4), delta=delta_us * 1e-6))

    drive(spec, n_parts=8, psize=8 * KiB, rounds=2,
          order_seed=order_seed, compute=ms(0.1), noise=0.1)


def test_simulation_is_deterministic_end_to_end():
    """Two identical full-stack runs produce identical virtual times."""
    def run():
        cluster = Cluster(n_nodes=2)
        s_proc, r_proc = cluster.ranks(2)
        sbuf = PartitionedBuffer(8, 4 * KiB, backed=False)
        rbuf = PartitionedBuffer(8, 4 * KiB, backed=False)
        times = []

        def sender(proc):
            req = proc.psend_init(sbuf, dest=1, tag=0,
                                  module=PersistSpec())
            team = WorkerTeam.on(cluster, 8, "noise")
            phase = ComputePhase(compute=ms(1),
                                 noise=SingleThreadDelay(0.04))
            for _ in range(3):
                yield from proc.start(req)
                yield team.run_round(phase, lambda tid: proc.pready(req, tid))
                yield from proc.wait_partitioned(req)
                times.append(proc.env.now)

        def receiver(proc):
            req = proc.precv_init(rbuf, source=0, tag=0,
                                  module=PersistSpec())
            for _ in range(3):
                yield from proc.start(req)
                yield from proc.wait_partitioned(req)

        cluster.spawn(sender(s_proc))
        cluster.spawn(receiver(r_proc))
        cluster.run()
        return times

    assert run() == run()
