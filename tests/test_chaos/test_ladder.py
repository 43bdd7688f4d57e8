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
from repro.mpi import ladder
from repro.mpi.ladder import LadderSpec
from repro.mpi.persist_module import PersistSpec
from repro.units import KiB, us

N_PARTS = 4
PSIZE = 64 * KiB

#: Per-round completion stamps (float-hex virtual seconds) of a dead
#: native edge that settles on the channels rung.
CHANNELS_STAMPS = {
    4 * KiB: {
        "send_done": ["0x1.1ba67422b8270p-10", "0x1.1d22e24ad0122p-10",
                      "0x1.1e9f5072e7fd4p-10", "0x1.201bbe9affe86p-10",
                      "0x1.21982cc317d38p-10", "0x1.23149aeb2fbeap-10"],
        "recv_done": ["0x1.30f9112dc6e43p-11", "0x1.1d22e24ad0122p-10",
                      "0x1.1e9f5072e7fd4p-10", "0x1.201bbe9affe86p-10",
                      "0x1.21982cc317d38p-10", "0x1.23149aeb2fbeap-10"],
    },
    64 * KiB: {
        "send_done": ["0x1.2b1e8e95d18f6p-10", "0x1.31c83c8b6abcfp-10",
                      "0x1.3871ea8103ea8p-10", "0x1.3f1b98769d181p-10",
                      "0x1.45c5466c3645ap-10", "0x1.4c6ef461cf733p-10"],
        "recv_done": ["0x1.506f7dd0ff646p-11", "0x1.320b5869ed94bp-10",
                      "0x1.38b5065f86c24p-10", "0x1.3f5eb4551fefdp-10",
                      "0x1.4608624ab91d6p-10", "0x1.4cb21040524afp-10"],
    },
}


def ladder_config():
    """Tight retry budgets."""
    return NIAGARA.with_changes(
        nic=replace(NIAGARA.nic, retry_cnt=1, rnr_retry=1, qp_timeout=1),
        part=replace(NIAGARA.part, reconnect_delay=us(500)),
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


def run_dead_edge(spec_factory, schedule, config, rounds=6, psize=PSIZE):
    cluster = Cluster(n_nodes=2, config=config)
    cluster.fabric.install_faults(schedule)
    s_proc, r_proc = cluster.ranks(2)
    sbuf = PartitionedBuffer(N_PARTS, psize, backed=True)
    rbuf = PartitionedBuffer(N_PARTS, psize, backed=True)
    # Per-round completion stamps (virtual seconds), per side.
    outcome = {"rounds_ok": 0, "send_done": [], "recv_done": []}

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
            outcome["send_done"].append(proc.env.now)

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec_factory())
        for rnd in range(rounds):
            yield from proc.start(req)
            yield from proc.wait_partitioned(req)
            outcome["recv_done"].append(proc.env.now)
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
def test_dead_edge_degrades_and_completes_with_the_ladder(monkeypatch):
    # A probation long enough to stay demoted.
    monkeypatch.setattr(ladder, "BREAKER_PROBATION", 100)

    def spec():
        return LadderSpec([native_rung(), PersistSpec(), ChannelSpec()])

    schedule = FaultSchedule()
    rounds = 6
    cluster, outcome = run_dead_edge(spec, schedule, ladder_config(),
                                     rounds=rounds)
    # Every round completed with the right bytes, despite the dead rung.
    assert outcome["rounds_ok"] == rounds
    c = cluster.fabric.counters
    assert c["ib.retry_exhausted"] >= 1
    assert c["chaos.edge_failures"] >= 1
    assert c["chaos.breaker_trips"] >= 1
    assert c["chaos.ladder_demotions"] >= 1
    # The tripped round itself was rescued mid-flight over p2p.
    assert c["chaos.rescued_partitions"] >= 1
    module = outcome["send_req"].module
    assert module.level > 0
    assert module.rungs[module.level].name in ("part_persist", "channels")
    assert module.transitions and \
        module.transitions[0]["kind"] == "demote"
    assert module.breaker.state == "half_open"


@pytest.mark.faults
@pytest.mark.parametrize("psize", [4 * KiB, 64 * KiB])
def test_dead_edge_settles_on_the_channels_rung(monkeypatch, psize):
    """The bottom rung on its own: native -> channels, nothing between."""
    monkeypatch.setattr(ladder, "BREAKER_PROBATION", 100)

    def spec():
        return LadderSpec([native_rung(), ChannelSpec()])

    rounds = 6
    cluster, outcome = run_dead_edge(spec, FaultSchedule(), ladder_config(),
                                     rounds=rounds, psize=psize)
    assert outcome["rounds_ok"] == rounds
    assert cluster.fabric.counters["chaos.rescued_partitions"] >= 1
    module = outcome["send_req"].module
    assert module.rungs[module.level].name == "channels"
    assert [t["to"] for t in module.transitions] == ["channels"]
    stamps = {side: [t.hex() for t in outcome[side]]
              for side in ("send_done", "recv_done")}
    assert stamps == CHANNELS_STAMPS[psize]


@pytest.mark.faults
def test_recovered_edge_is_promoted_back_after_probation(monkeypatch):
    """Short probation + finite fault: the edge demotes, serves clean
    rounds on the fallback, then walks back up to the native rung."""
    monkeypatch.setattr(ladder, "BREAKER_PROBATION", 2)

    def spec():
        return LadderSpec([native_rung(), PersistSpec(), ChannelSpec()])

    schedule = FaultSchedule()
    cluster, outcome = run_dead_edge(
        spec, schedule, ladder_config(), rounds=8)
    assert outcome["rounds_ok"] == 8
    c = cluster.fabric.counters
    assert c["chaos.ladder_demotions"] >= 1
    assert c["chaos.ladder_promotions"] >= 1
    module = outcome["send_req"].module
    kinds = [t["kind"] for t in module.transitions]
    assert "demote" in kinds and "promote" in kinds
    assert kinds.index("demote") < kinds.index("promote")
    # Promotion re-created the rung on fresh QPs: back at the top.
    assert module.level == 0
    assert module.rungs[module.level].name == "native_verbs"


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
    assert cluster.fabric.counters["autotune.quarantined"] >= 1
