"""Seeded generator properties: determinism, shape, serialization."""

import numpy as np
import pytest

from repro.chaos import (
    KINDS,
    generate_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.faults import ChunkFaults, FaultSchedule, NICStall


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("kind", KINDS)
def test_same_seed_same_schedule(kind):
    a = generate_schedule(kind, rng(7), n_nodes=5, horizon=10e-3)
    b = generate_schedule(kind, rng(7), n_nodes=5, horizon=10e-3)
    assert schedule_to_dict(a) == schedule_to_dict(b)


@pytest.mark.parametrize("kind", KINDS)
def test_different_seeds_differ(kind):
    a = generate_schedule(kind, rng(1), n_nodes=6, horizon=10e-3)
    b = generate_schedule(kind, rng(2), n_nodes=6, horizon=10e-3)
    assert schedule_to_dict(a) != schedule_to_dict(b)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 3, 11, 42])
def test_windows_are_finite_and_inside_horizon(kind, seed):
    horizon = 8e-3
    sched = generate_schedule(kind, rng(seed), n_nodes=7, horizon=horizon)
    assert not sched.empty
    assert sched.allow_reconnect
    windows = ([(f.start, f.duration) for f in sched.flaps]
               + [(s.start, s.duration) for s in sched.spikes]
               + [(w.start, w.duration) for w in sched.rnr_windows])
    assert windows
    for start, duration in windows:
        assert 0 <= start < horizon
        assert 0 < duration < horizon


def test_flap_storm_has_several_independent_flaps():
    sched = generate_schedule("flap_storm", rng(5), n_nodes=6)
    assert len(sched.flaps) >= 2
    assert all(f.a != f.b for f in sched.flaps)


def test_rail_failure_downs_every_link_of_one_node_at_once():
    n = 6
    sched = generate_schedule("rail_failure", rng(5), n_nodes=n)
    assert len(sched.flaps) == n - 1
    # All flaps share one endpoint and one window: a correlated failure.
    common = set.intersection(*({f.a, f.b} for f in sched.flaps))
    assert len(common) == 1
    assert len({(f.start, f.duration) for f in sched.flaps}) == 1


def test_rnr_burst_is_node_wide_windows():
    sched = generate_schedule("rnr_burst", rng(9), n_nodes=4)
    assert len(sched.rnr_windows) >= 2
    assert all(w.qp_num is None for w in sched.rnr_windows)


def test_latency_train_is_ordered_on_one_directed_link():
    sched = generate_schedule("latency_train", rng(9), n_nodes=4)
    assert len(sched.spikes) >= 3
    assert len({(s.src, s.dst) for s in sched.spikes}) == 1
    starts = [s.start for s in sched.spikes]
    assert starts == sorted(starts)
    # Spikes in a train do not overlap (extra latency never stacks).
    for prev, cur in zip(sched.spikes, sched.spikes[1:]):
        assert cur.start >= prev.start + prev.duration


def test_unknown_kind_and_bad_args_are_rejected():
    with pytest.raises(ValueError):
        generate_schedule("meteor_strike", rng(), n_nodes=4)
    with pytest.raises(ValueError):
        generate_schedule("flap_storm", rng(), n_nodes=1)
    for horizon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            generate_schedule("flap_storm", rng(), n_nodes=4,
                              horizon=horizon)


def test_schedule_round_trips_through_dict():
    sched = (FaultSchedule(allow_reconnect=False,
                           stalls=[NICStall(0, start=1e-4, duration=1e-4)])
             .link_flap(0, 1, start=1e-3, duration=2e-3)
             .latency_spike(1, 2, start=2e-3, duration=1e-3, extra=5e-6)
             .rnr_window(2, start=5e-4, duration=1e-4, qp_num=17)
             .chunk_loss(1e-4, src=0, dst=1))
    sched.chunk_faults.append(ChunkFaults(corruption=1e-5))
    rebuilt = schedule_from_dict(schedule_to_dict(sched))
    assert schedule_to_dict(rebuilt) == schedule_to_dict(sched)
    assert rebuilt.allow_reconnect is False
    assert rebuilt.rnr_windows[0].qp_num == 17
