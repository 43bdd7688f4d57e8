"""FaultSchedule / FaultInjector: validation, queries, determinism."""

from collections import Counter

import pytest

from repro.errors import ConfigError
from repro.faults import (
    CHUNK_CORRUPT,
    CHUNK_LOST,
    CHUNK_OK,
    ChunkFaults,
    FaultInjector,
    FaultSchedule,
    NICStall,
)
from repro.sim.rng import RngStreams


def make_injector(schedule, seed=1234):
    return FaultInjector(schedule, RngStreams(seed).spawn("faults"),
                         Counter())


# -- validation -----------------------------------------------------------


def test_negative_window_start_rejected():
    with pytest.raises(ConfigError):
        FaultSchedule().link_flap(0, 1, start=-1.0, duration=1.0)


def test_zero_duration_rejected():
    with pytest.raises(ConfigError):
        NICStall(0, start=1.0, duration=0.0)


def test_negative_latency_spike_rejected():
    with pytest.raises(ConfigError):
        FaultSchedule().latency_spike(0, 1, start=0.0, duration=1.0,
                                      extra=-1e-6)


def test_loss_probability_outside_unit_interval_rejected():
    with pytest.raises(ConfigError):
        FaultSchedule().chunk_loss(1.5)
    with pytest.raises(ConfigError):
        ChunkFaults(corruption=-0.1)


def test_empty_schedule_reports_empty():
    assert FaultSchedule().empty
    assert not FaultSchedule().chunk_loss(0.0).empty


# -- scripted-window queries ---------------------------------------------


def test_link_flap_covers_both_directions():
    inj = make_injector(FaultSchedule().link_flap(0, 1, start=1.0,
                                                  duration=0.5))
    assert inj.link_down(0, 1, 1.2)
    assert inj.link_down(1, 0, 1.2)
    assert not inj.link_down(0, 1, 0.9)
    assert not inj.link_down(0, 1, 1.5)  # half-open window
    assert not inj.link_down(0, 2, 1.2)  # other links untouched


def test_latency_spikes_sum():
    sched = (FaultSchedule()
             .latency_spike(0, 1, start=0.0, duration=2.0, extra=1e-6)
             .latency_spike(0, 1, start=1.0, duration=2.0, extra=2e-6))
    inj = make_injector(sched)
    assert inj.latency_extra(0, 1, 1.5) == pytest.approx(3e-6)
    assert inj.latency_extra(0, 1, 0.5) == pytest.approx(1e-6)
    assert inj.latency_extra(1, 0, 1.5) == 0.0  # directed


def test_nic_stall_until_chains():
    sched = FaultSchedule(stalls=[NICStall(3, start=1.0, duration=1.0),
                                  NICStall(3, start=1.5, duration=1.0)])
    inj = make_injector(sched)
    assert inj.stall_until(3, 1.2) == pytest.approx(2.5)
    assert inj.stall_until(3, 3.0) == pytest.approx(3.0)
    assert inj.stall_until(4, 1.2) == pytest.approx(1.2)


def test_rnr_window_scoped_to_qp():
    sched = FaultSchedule().rnr_window(1, start=0.0, duration=1.0, qp_num=7)
    inj = make_injector(sched)
    assert inj.rnr_forced(1, 7, 0.5)
    assert not inj.rnr_forced(1, 8, 0.5)
    assert not inj.rnr_forced(2, 7, 0.5)


# -- chunk outcomes -------------------------------------------------------


def test_flapped_link_loses_without_rng_draw():
    """Flap losses are scripted: the loss RNG stream must not advance."""
    sched = (FaultSchedule()
             .chunk_loss(0.5)
             .link_flap(0, 1, start=1.0, duration=1.0))
    a = make_injector(sched)
    b = make_injector(FaultSchedule().chunk_loss(0.5))
    # During the flap every chunk is lost on injector a; injector b
    # draws normally.  Afterwards both must produce the same stream.
    for _ in range(10):
        assert a.chunk_outcome(0, 1, 1.5) is CHUNK_LOST
    outcomes_a = [a.chunk_outcome(0, 1, 2.5) for _ in range(200)]
    outcomes_b = [b.chunk_outcome(0, 1, 2.5) for _ in range(200)]
    assert outcomes_a == outcomes_b
    assert CHUNK_LOST in outcomes_a and CHUNK_OK in outcomes_a


def test_chunk_streams_are_per_directed_link():
    inj = make_injector(FaultSchedule().chunk_loss(0.5))
    fwd = [inj.chunk_outcome(0, 1, 0.0) for _ in range(100)]
    # Draws on the reverse link must not have consumed the forward
    # stream: a fresh injector reproduces fwd exactly.
    ref = make_injector(FaultSchedule().chunk_loss(0.5))
    [ref.chunk_outcome(1, 0, 0.0) for _ in range(57)]
    assert [ref.chunk_outcome(0, 1, 0.0) for _ in range(100)] == fwd


def test_corruption_counted_separately():
    inj = make_injector(FaultSchedule(
        chunk_faults=[ChunkFaults(corruption=1.0)]))
    assert inj.chunk_outcome(0, 1, 0.0) is CHUNK_CORRUPT
    assert inj.counters["fault.chunks_corrupted"] == 1
    assert inj.counters["fault.chunks_lost"] == 0


def test_same_seed_same_outcome_stream():
    outcomes = []
    for _ in range(2):
        inj = make_injector(FaultSchedule().chunk_loss(0.3), seed=99)
        outcomes.append([inj.chunk_outcome(0, 1, 0.0) for _ in range(500)])
    assert outcomes[0] == outcomes[1]
