"""Fault windows overlapping tree collectives (satellite coverage).

Seeded link flaps and RNR windows land mid-``Pbcast``/``Pallreduce``
at worlds 3, 5 and 7; every round must still deliver exactly once and
the in-place reduce must still produce the wrapping uint8 sum.
"""

import pytest

from repro.chaos import NATIVE, check_invariants
from repro.chaos.workloads import run_chaos_tree
from repro.coll import ladder_modules
from repro.exp.modules import build_module
from repro.faults import FaultSchedule
from repro.units import us

pytestmark = pytest.mark.faults

WORLDS = [3, 5, 7]


def flap_schedule(world):
    """A mid-run flap on a tree edge plus one off-tree distractor."""
    sched = FaultSchedule().link_flap(0, 1, start=us(150), duration=us(300))
    if world > 3:
        sched.link_flap(1, world - 1, start=us(400), duration=us(200))
    return sched


def rnr_schedule(world):
    """Node-wide receiver-not-ready windows on two interior ranks.

    Long enough (the compute phase alone is 200us) that tree traffic
    toward the covered ranks actually lands inside a window.
    """
    sched = FaultSchedule().rnr_window(1, start=us(100), duration=us(900))
    if world > 3:
        sched.rnr_window(2, start=us(300), duration=us(700))
    return sched


def run_chaos_pallreduce(schedule, seed, world, ladder=False):
    module = build_module(NATIVE)
    return run_chaos_tree("pallreduce", schedule, seed,
                          ladder_modules(module) if ladder else module,
                          world=world)


def run_chaos_pbcast(schedule, seed, world):
    return run_chaos_tree("pbcast", schedule, seed, build_module(NATIVE),
                          world=world)


def assert_clean(report):
    assert report.completed, report.meta
    assert report.integrity_failures == 0
    assert check_invariants(report) == []
    assert report.leaks == []


@pytest.mark.parametrize("world", WORLDS)
def test_pallreduce_survives_mid_round_flaps(world):
    report = run_chaos_pallreduce(flap_schedule(world), seed=world,
                                  world=world)
    assert_clean(report)
    c = report.counters
    # The fault was actually exercised, and recovery replayed WRs
    # without any duplicate slipping through the tracker.
    assert c.get("ib.retransmits", 0) > 0
    assert c.get("mpi.duplicates_dropped", 0) <= (
        c.get("mpi.replayed_wrs", 0) + c.get("mpi.read_replays", 0)
        + c.get("mpi.p2p_failures", 0))


@pytest.mark.parametrize("world", WORLDS)
def test_pbcast_survives_mid_round_flaps(world):
    report = run_chaos_pbcast(flap_schedule(world), seed=world, world=world)
    assert_clean(report)
    assert report.counters.get("ib.retransmits", 0) > 0


@pytest.mark.parametrize("world", WORLDS)
def test_pallreduce_survives_rnr_windows(world):
    report = run_chaos_pallreduce(rnr_schedule(world), seed=10 + world,
                                  world=world)
    assert_clean(report)
    assert report.counters.get("ib.rnr_naks", 0) > 0


@pytest.mark.parametrize("world", WORLDS)
def test_pbcast_survives_rnr_windows(world):
    report = run_chaos_pbcast(rnr_schedule(world), seed=10 + world,
                              world=world)
    assert_clean(report)
    assert report.counters.get("ib.rnr_naks", 0) > 0


def test_pallreduce_with_ladder_under_flaps():
    """The ladder wrapping every tree edge stays correct under faults."""
    report = run_chaos_pallreduce(flap_schedule(5), seed=3, world=5,
                                  ladder=True)
    assert_clean(report)
