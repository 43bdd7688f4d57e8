"""Tests for online δ tuning (paper future work, Section IV-D).

One mechanism: the ``delta_tracker`` autotune policy.  The
``["adaptive", p]`` experiment descriptor is its window-of-one setting
(δ follows each round's own non-laggard spread).
"""

import pytest

from repro.autotune import (
    ArrivalTracker,
    DeltaTrackerPolicy,
    IterationObservation,
    PlanChoice,
    build_autotuner,
)
from repro.config import NIAGARA
from repro.core import NativeSpec
from repro.errors import ConfigError
from repro.exp.modules import build_module
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.runtime import ComputePhase, SingleThreadDelay, WorkerTeam
from repro.units import KiB, ms, us

BASE = PlanChoice(8, 2, delta=us(100))


def adaptive(initial_delta, **tuner):
    return build_module(["adaptive", {"delay": ms(4),
                                      "initial_delta": initial_delta,
                                      **tuner}])


def test_update_moves_toward_target():
    policy = DeltaTrackerPolicy(BASE, quantile=1.0, alpha=0.5, margin=1.0)
    tracker = ArrivalTracker(window=1)
    pready = (0.0, 20e-6, 4e-3)  # laggard excluded: spread 20us
    tracker.observe(pready)
    policy.observe(BASE, IterationObservation(
        round=0, completion_time=1.0, pready_times=pready), tracker)
    # current 100us, observed spread 20us -> midpoint 60us
    assert policy.best().delta == pytest.approx(60e-6)


def test_adaptive_validation():
    with pytest.raises(ConfigError):
        DeltaTrackerPolicy(BASE, alpha=0.0)
    with pytest.raises(ConfigError):
        DeltaTrackerPolicy(BASE, margin=-1)
    with pytest.raises(ConfigError):
        DeltaTrackerPolicy(BASE, min_delta=2e-3, max_delta=1e-3)


def test_plan_requires_timer_seed():
    agg = build_autotuner({"policy": "delta_tracker",
                           "base": {"n_transport": 2, "n_qps": 1}})
    with pytest.raises(ConfigError):
        agg.plan(32, 256 * KiB, NIAGARA)


def test_aggregator_plan_carries_tuner():
    agg = adaptive(us(100))
    plan, controller = agg.provision(32, 256 * KiB, NIAGARA)
    assert plan.delta == pytest.approx(us(100))
    assert isinstance(controller.policy, DeltaTrackerPolicy)
    assert "delta-tracker" in agg.describe()


def run_rounds(aggregator, rounds=6, n_parts=16, compute=ms(2)):
    cluster = Cluster(n_nodes=2)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(n_parts, 64 * KiB, backed=False)
    rbuf = PartitionedBuffer(n_parts, 64 * KiB, backed=False)
    holder = {}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0,
                              module=NativeSpec(aggregator))
        team = WorkerTeam(proc.env, n_parts,
                          cluster.rngs.stream("noise"), cores=40)
        phase = ComputePhase(compute=compute, noise=SingleThreadDelay(0.04))
        for _ in range(rounds):
            yield from proc.start(req)
            yield team.run_round(phase, lambda tid: proc.pready(req, tid))
            yield from proc.wait_partitioned(req)
        holder["module"] = req.module

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0,
                              module=NativeSpec(aggregator))
        for _ in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    return holder["module"]


def test_delta_converges_toward_observed_spread():
    """Starting from a far-too-large delta, the tuner shrinks it to the
    scale of the actual non-laggard jitter (sub-10us at 2ms compute)."""
    module = run_rounds(adaptive(us(500), alpha=0.5, margin=1.25,
                                 min_delta=us(0.5), max_delta=us(500)))
    history = module.delta_history
    assert history[0] == pytest.approx(us(500))
    assert history[-1] < history[0] / 5
    # Monotone-ish decay toward the spread.
    assert history[-1] < us(50)
    # Bit-for-bit the trajectory of the in-module tuner this replaced.
    assert [d.hex() for d in history] == [
        "0x1.0624dd2f1a9fcp-11", "0x1.0649506ee30f6p-12",
        "0x1.06b3ab7155a8ap-13", "0x1.07d287cab5142p-14",
        "0x1.09807a7300062p-15", "0x1.0dd96f90a3de2p-16"]


def test_delta_history_one_entry_per_round():
    module = run_rounds(adaptive(us(100)), rounds=4)
    assert len(module.delta_history) == 4


def test_two_partitions_leave_delta_alone():
    """Dropping the laggard from two arrivals leaves nothing to spread
    over; that 0 is not a measurement and must not shrink δ."""
    module = run_rounds(adaptive(us(100)), rounds=4, n_parts=2)
    assert [d.hex() for d in module.delta_history] == [us(100).hex()] * 4


def test_fixed_timer_keeps_delta_constant():
    from repro.core import TimerPLogGPAggregator
    from repro.model.tables import NIAGARA_LOGGP

    agg = TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=us(100))
    module = run_rounds(agg, rounds=4)
    assert module.delta_history == [pytest.approx(us(100))] * 4
