"""A finished simulation is released, not collected.

Every driver that builds a :class:`~repro.mpi.cluster.Cluster` closes it
(``with Cluster(...)``) once it has read its results.  ``Cluster.close``
shuts the environment down and has each owner drop the tables that point
back at it, so nothing the run built is left in a reference cycle: with
the cyclic collector off, a driver leaves no cyclic garbage at all.  A
back-reference planted anywhere in the object graph shows up here by the
types it strands (docs/PERF.md §3).
"""

import gc
from collections import Counter

import pytest

from repro.bench.coll import run_pcoll
from repro.bench.halo import run_halo
from repro.bench.pair import run_partitioned_pair
from repro.bench.sweep import run_sweep
from repro.chaos import NATIVE
from repro.chaos.workloads import run_chaos_tree
from repro.coll import ladder_modules, per_edge_autotuners, run_stencil
from repro.config import NIAGARA
from repro.errors import SimulationError
from repro.exp.modules import build_module
from repro.faults import FaultSchedule
from repro.fleet.chaos import run_fleet_workload
from repro.fleet.run import run_contended_pair, run_reconvergence
from repro.ib.qp import QueuePair
from repro.model.netgauge import measure_loggp
from repro.mpi.cluster import Cluster
from repro.sim import Environment, Notify, SimLock
from repro.sim.core import PARKED
from repro.units import KiB
from tests.test_ib.conftest import Pair

BANDIT = {"policy": "bandit", "counts": [2, 4], "deltas": [None],
          "epsilon": 0.3, "decay": 0.85, "bandit_seed": 3}


def _persist_pair():
    run_partitioned_pair(None, 8, 16 * KiB, iterations=2, warmup=1)


def _native_pair_under_loss(config=None):
    run_partitioned_pair(build_module(["fixed", {"n_transport": 4,
                                                 "n_qps": 2}]),
                         8, 64 * KiB, iterations=3, warmup=1, backed=True,
                         config=config,
                         fault_schedule=FaultSchedule().chunk_loss(0.05))


def _traced_native_pair_under_loss():
    _native_pair_under_loss(NIAGARA.with_changes(trace_enabled=True))


def _sweep():
    run_sweep(None, grid=(2, 2), n_threads=4, total_bytes=64 * KiB,
              iterations=1, warmup=1)


def _halo():
    run_halo(build_module(["ploggp", {}]), grid=(2, 2), n_threads=4,
             face_bytes=64 * KiB, iterations=1, warmup=1)


def _pallreduce():
    run_pcoll(None, world=4, iterations=1, warmup=1)


def _tuned_stencil():
    run_stencil(planner=lambda proc, axes: per_edge_autotuners(BANDIT),
                grid=(2, 2), n_threads=2, n_partitions=4, iterations=2,
                warmup=1)


def _fleet():
    run_contended_pair(level=1, iterations=2, warmup=1)


def _reconvergence():
    run_reconvergence(BANDIT, quiet_rounds=2, congested_rounds=2,
                      tail_rounds=1, n_partitions=8, partition_size=16 * KiB)


def _fleet_chaos_ladder():
    run_fleet_workload(FaultSchedule().chunk_loss(0.3), 0,
                       ladder_modules(build_module(NATIVE)))


def _chaos_pallreduce_ladder():
    # Heavy loss: retries run out, QPs reconnect, WRs replay.
    run_chaos_tree("pallreduce", FaultSchedule().chunk_loss(0.3), 1,
                   ladder_modules(build_module(NATIVE)), iterations=2,
                   warmup=1)


def _chaos_pbcast_persist():
    run_chaos_tree("pbcast", FaultSchedule().chunk_loss(0.3), 1, None,
                   iterations=2, warmup=1)


def _netgauge():
    measure_loggp(sizes=[64, 4 * KiB], rounds=3, burst=4)


DRIVERS = [_persist_pair, _native_pair_under_loss,
           _traced_native_pair_under_loss, _sweep, _halo,
           _pallreduce, _tuned_stencil, _fleet, _reconvergence,
           _fleet_chaos_ladder, _chaos_pallreduce_ladder,
           _chaos_pbcast_persist, _netgauge]


def _cyclic_garbage(run) -> Counter:
    """What ``run()`` leaves for the cyclic collector, by type name."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return Counter(type(obj).__qualname__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()


@pytest.mark.parametrize("driver", DRIVERS,
                         ids=[d.__name__.lstrip("_") for d in DRIVERS])
def test_driver_leaves_no_cyclic_garbage(driver):
    leaked = _cyclic_garbage(driver)
    assert not leaked, (
        f"{sum(leaked.values())} objects left for the cyclic collector, "
        f"by type: {dict(leaked.most_common())}")


def test_a_planted_back_reference_is_named(monkeypatch):
    """The census catches a QP list on its protection domain."""
    init = QueuePair.__init__

    def planted(self, pd, *args, **kwargs):
        init(self, pd, *args, **kwargs)
        pd.__dict__.setdefault("qps", []).append(self)

    monkeypatch.setattr(QueuePair, "__init__", planted)
    leaked = _cyclic_garbage(_persist_pair)
    assert leaked["QueuePair"] > 0 and leaked["ProtectionDomain"] > 0


def test_a_closed_cluster_refuses_to_run():
    with Cluster(n_nodes=2) as cluster:
        cluster.ranks(2)
        cluster.run()
    with pytest.raises(SimulationError, match="closed"):
        cluster.run()


def test_close_unhooks_and_finalizes_without_dispatching():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        try:
            yield gate
        finally:
            log.append(("finally", env.now))

    def sleeper():
        yield 5.0

    proc = env.process(waiter())
    env.all_of([proc])                    # a condition waits on it
    env.process(sleeper())
    env.run(until=1.0)
    env.close()
    assert log == [("finally", 1.0)]
    assert env.now == 1.0 and env.peek() == float("inf")
    assert gate.callbacks == [] and proc.callbacks == [] and not proc.triggered
    with pytest.raises(SimulationError):
        env.run()


def test_close_unhooks_a_process_parked_on_each_primitive():
    """At close, a process is still queued on a lock, on a latch (with a
    fallback deadline and without), on a busy port and on a QP at its
    outstanding-RDMA cap: close takes each out of its queue and closes
    it, and nothing is left for the cyclic collector."""
    after = {}

    def run():
        env = Environment()
        pair = Pair(env, backed=False)
        lock, notify = SimLock(env), Notify(env)
        port, qp = pair.qp0.egress, pair.qp0
        qp.outstanding_rdma = qp.max_outstanding_rdma
        closed = []

        def holder():
            yield from lock.hold()
            grant = port.claim()
            assert grant.waiter is None
            yield 5.0

        def parked(name, park):
            try:
                yield from park()
            finally:
                closed.append(name)

        def on_lock():
            yield from lock.hold()

        def on_port():
            if port.claim().waiter is not None:
                yield PARKED

        def on_latch(fallback):
            yield notify.wait(fallback)

        def on_slot():
            yield qp.wait_rdma_slot()

        env.process(holder())
        for name, park in [("lock", on_lock), ("port", on_port),
                           ("latch", lambda: on_latch(None)),
                           ("deadline", lambda: on_latch(2.0)),
                           ("slot", on_slot)]:
            env.process(parked(name, park))
        env.run(until=1.0)
        queued = (len(lock._waiting), port.queue_length, len(notify._parked),
                  len(qp._slot_waiters))
        env.close()
        pair.fabric.close()
        after.update(queued=queued, closed=sorted(closed),
                     left=(len(lock._waiting), port.queue_length,
                           len(notify._parked), len(qp._slot_waiters)))

    leaked = _cyclic_garbage(run)
    assert after == {"queued": (1, 1, 2, 1),
                     "closed": ["deadline", "latch", "lock", "port", "slot"],
                     "left": (0, 0, 0, 0)}
    assert not leaked, dict(leaked.most_common())
