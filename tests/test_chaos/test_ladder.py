"""The degradation ladder: a permanently-dead edge degrades, completes,
and re-promotes — instead of aborting with retry exhaustion."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import NIAGARA
from repro.core import FixedAggregation, NativeSpec
from repro.errors import RetryExhaustedError
from repro.faults import FaultSchedule
from repro.faults.schedule import RNRWindow
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.mpi.channel_module import ChannelSpec
from repro.mpi.ladder import LadderSpec
from repro.mpi.persist_module import PersistSpec
from repro.units import KiB, us

N_PARTS = 4
PSIZE = 64 * KiB


def ladder_config(threshold=3, probation=100):
    """Tight retry budgets; probation long enough to stay demoted."""
    return NIAGARA.with_changes(
        nic=replace(NIAGARA.nic, retry_cnt=1, rnr_retry=1, qp_timeout=1),
        part=replace(NIAGARA.part, reconnect_delay=us(500),
                     breaker_threshold=threshold,
                     breaker_probation=probation),
    )


def native_rung():
    return NativeSpec(FixedAggregation(2, 1))


def pin_dead(schedule, req):
    """Perma-dead native transport: RNR-NAK every one of its recv QPs.

    Pinned by qp_num, which survives reconnects — so the native rung
    can never deliver again, while the fallback rungs (fresh QPs, the
    shared p2p channel) stay healthy.  This is the QP-local permanent
    failure the ladder exists for; a link flap would kill the fallback
    paths too.
    """
    module = req.module
    inner = getattr(module, "inner", module)
    now = req.process.env.now
    for qp in inner.recv_qps:
        schedule.rnr_windows.append(RNRWindow(
            node=1, start=now, duration=10.0, qp_num=qp.qp_num))


def run_dead_edge(spec_factory, schedule, config, rounds=6):
    cluster = Cluster(n_nodes=2, config=config)
    cluster.fabric.install_faults(schedule)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(N_PARTS, PSIZE, backed=True)
    rbuf = PartitionedBuffer(N_PARTS, PSIZE, backed=True)
    outcome = {"rounds_ok": 0}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec_factory())
        outcome["send_req"] = req
        for rnd in range(rounds):
            sbuf.fill_pattern(seed=rnd)
            yield from proc.start(req)
            if rnd == 0:
                # The QPs exist once the first Start has seen setup
                # complete; append the kill windows mid-run.
                pin_dead(schedule, req)
            for i in range(N_PARTS):
                yield from proc.pready(req, i)
            yield from proc.wait_partitioned(req)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec_factory())
        for rnd in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)
            if np.array_equal(rbuf.data, rbuf.expected_pattern(
                    0, rbuf.nbytes, seed=rnd)):
                outcome["rounds_ok"] += 1

    cluster.spawn(sender(s_proc))
    cluster.spawn(receiver(r_proc))
    cluster.run()
    return cluster, outcome


@pytest.mark.faults
def test_dead_edge_aborts_without_the_ladder():
    schedule = FaultSchedule(allow_reconnect=False)
    with pytest.raises(RetryExhaustedError) as excinfo:
        run_dead_edge(native_rung, schedule, ladder_config())
    ctx = excinfo.value.context
    assert ctx["edge"] == (0, 1)
    assert ctx["epoch"] >= 1
    assert ctx["retries"]["rnr_retry"] == 1


@pytest.mark.faults
def test_dead_edge_degrades_and_completes_with_the_ladder():
    def spec():
        return LadderSpec([native_rung(), PersistSpec(), ChannelSpec()])

    schedule = FaultSchedule()
    rounds = 6
    cluster, outcome = run_dead_edge(spec, schedule, ladder_config(),
                                     rounds=rounds)
    # Every round completed with the right bytes, despite the dead rung.
    assert outcome["rounds_ok"] == rounds
    c = cluster.fabric.counters
    assert c.get("ib.retry_exhausted") >= 1
    assert c.get("chaos.edge_failures") >= 1
    assert c.get("chaos.breaker_trips") >= 1
    assert c.get("chaos.ladder_demotions") >= 1
    # The tripped round itself was rescued mid-flight over p2p.
    assert c.get("chaos.rescued_partitions") >= 1
    module = outcome["send_req"].module
    assert module.level > 0
    assert module.rung_name in ("part_persist", "channels")
    assert module.transitions and \
        module.transitions[0]["kind"] == "demote"
    assert module.breaker.state == "half_open"


@pytest.mark.faults
def test_recovered_edge_is_promoted_back_after_probation():
    """Short probation + finite fault: the edge demotes, serves clean
    rounds on the fallback, then walks back up to the native rung."""
    def spec():
        return LadderSpec([native_rung(), PersistSpec(), ChannelSpec()])

    schedule = FaultSchedule()
    cluster, outcome = run_dead_edge(
        spec, schedule, ladder_config(threshold=3, probation=2), rounds=8)
    assert outcome["rounds_ok"] == 8
    c = cluster.fabric.counters
    assert c.get("chaos.ladder_demotions") >= 1
    assert c.get("chaos.ladder_promotions") >= 1
    module = outcome["send_req"].module
    kinds = [t["kind"] for t in module.transitions]
    assert "demote" in kinds and "promote" in kinds
    assert kinds.index("demote") < kinds.index("promote")
    # Promotion re-created the rung on fresh QPs: back at the top.
    assert module.level == 0
    assert module.rung_name == "native_verbs"


@pytest.mark.faults
def test_quarantine_counts_faulted_rounds():
    """Autotuned native edges quarantine observations overlapping
    recovery windows instead of folding them into the policy."""
    from repro.autotune import build_autotuner

    def spec():
        return NativeSpec(build_autotuner({"counts": [1, 2]}))


    schedule = FaultSchedule().link_flap(0, 1, start=us(100),
                                         duration=us(300))
    config = NIAGARA.with_changes(
        nic=replace(NIAGARA.nic, retry_cnt=1, qp_timeout=1),
        part=replace(NIAGARA.part, reconnect_delay=us(500)))
    cluster, outcome = run_dead_edge(spec, schedule, config, rounds=4)
    assert outcome["rounds_ok"] == 4
    assert cluster.fabric.counters.get("autotune.quarantined") >= 1
