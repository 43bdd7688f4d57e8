"""ReplayTracker: the one recovery protocol shared by every transport."""

import pytest

from repro.engine import ReplayTracker, reconnect_walk
from repro.ib.constants import QPState
from repro.units import us

from tests.test_engine.conftest import FakeFabric, FakeFaults

DELAY = us(10)


class FakeQP:
    def __init__(self, state=QPState.RTS):
        self.state = state


@pytest.fixture
def fake_reconnect(monkeypatch):
    """Replace the verbs reconnect with one that just flips states."""
    from repro.ib import verbs

    calls = []

    def reconnect(local, remote):
        calls.append((local, remote))
        local.state = QPState.RTS
        if remote is not None:
            remote.state = QPState.RTS

    monkeypatch.setattr(verbs, "reconnect_qps", reconnect)
    return calls


# -- reconnect_walk ---------------------------------------------------------


def test_walk_fixes_only_dead_pairs(fake_reconnect):
    good = (FakeQP(), FakeQP())
    dead_local = (FakeQP(QPState.ERROR), FakeQP())
    dead_remote = (FakeQP(), FakeQP(QPState.ERROR))
    pairs = [("a", *good), ("b", *dead_local), ("c", *dead_remote)]
    fixed = reconnect_walk(pairs)
    assert fixed == {"b", "c"}
    assert len(fake_reconnect) == 2
    assert all(qp.state is QPState.RTS
               for _, local, remote in pairs for qp in (local, remote))


def test_walk_tolerates_missing_remote(fake_reconnect):
    qp = FakeQP(QPState.ERROR)
    fixed = reconnect_walk([("x", qp, None)])
    assert fixed == {"x"}
    assert fake_reconnect == [(qp, None)]


def test_walk_on_fixed_hook(fake_reconnect):
    qp_l, qp_r = FakeQP(QPState.ERROR), FakeQP()
    hooked = []
    reconnect_walk([("t", qp_l, qp_r)],
                   on_fixed=lambda tok, a, b: hooked.append((tok, a, b)))
    assert hooked == [("t", qp_l, qp_r)]


# -- ReplayTracker ----------------------------------------------------------


def make_tracker(env, allow_reconnect=True):
    fabric = FakeFabric(FakeFaults(allow_reconnect))
    return ReplayTracker(env, fabric, DELAY), fabric


def test_recovery_enabled_policy(env):
    tracker, _ = make_tracker(env)
    assert tracker.recovery_enabled
    tracker, _ = make_tracker(env, allow_reconnect=False)
    assert not tracker.recovery_enabled
    tracker = ReplayTracker(env, FakeFabric(None), DELAY)
    assert not tracker.recovery_enabled


def test_inflight_bookkeeping(env):
    tracker, _ = make_tracker(env)
    tracker.track(1, "qp-a", "payload-1")
    tracker.track(2, "qp-b", "payload-2")
    assert tracker.complete(1) == ("qp-a", "payload-1")
    assert tracker.complete(1) is None
    assert tracker.fail(2) == ("qp-b", "payload-2")
    assert tracker.fail(99) is None


def test_recover_sweeps_and_replays_fifo(env):
    tracker, fabric = make_tracker(env)
    replayed = []

    def replay_unit(unit):
        replayed.append((unit, env.now))
        yield env.timeout(0)

    tracker.bind(
        recover_walk=lambda: {"qp-a"},
        restock=lambda: None,
        on_dropped=lambda payload: payload,
        can_replay=lambda unit: True,
        replay_unit=replay_unit,
    )
    # Two in-flight WRs: one on the dead path, one on a live path.
    tracker.track(1, "qp-a", ["u1", "u2"])
    tracker.track(2, "qp-b", ["u3"])
    tracker.queue(["u0"])  # queued directly (error CQE path)
    tracker.kick()
    tracker.kick()  # idempotent: one recovery process per burst
    env.run()
    # FIFO: directly-queued unit first, then the swept WR's units.
    assert [u for u, _ in replayed] == ["u0", "u1", "u2"]
    # Replays happen after the reconnect delay, not before.
    assert all(t == pytest.approx(DELAY) for _, t in replayed)
    assert fabric.counters["mpi.replayed_wrs"] == 3
    assert not tracker.recovering
    assert not tracker.replay
    # The live WR stayed tracked.
    assert tracker.complete(2) == ("qp-b", ["u3"])


def test_recover_takes_another_lap_when_path_still_dead(env):
    tracker, fabric = make_tracker(env)
    laps = []
    replayed = []

    def can_replay(unit):
        # First lap: still dead.  Second lap: fixed.
        return len(laps) >= 2

    def recover_walk():
        laps.append(env.now)
        return set()

    def replay_unit(unit):
        replayed.append((unit, env.now))
        return
        yield

    tracker.bind(recover_walk=recover_walk, restock=lambda: None,
                 on_dropped=lambda p: p, can_replay=can_replay,
                 replay_unit=replay_unit)
    tracker.queue(["u"])
    tracker.kick()
    env.run()
    assert len(laps) == 2
    assert replayed == [("u", pytest.approx(2 * DELAY))]
    assert fabric.counters["mpi.replayed_wrs"] == 1
    assert not tracker.recovering


def test_custom_counter_name(env):
    fabric = FakeFabric(FakeFaults())
    tracker = ReplayTracker(env, fabric, DELAY, counter="mpi.p2p_resubmits")

    def replay_unit(unit):
        return
        yield

    tracker.bind(recover_walk=lambda: set(), restock=lambda: None,
                 on_dropped=lambda p: p, can_replay=lambda u: True,
                 replay_unit=replay_unit)
    tracker.queue(["m"])
    tracker.kick()
    env.run()
    assert fabric.counters["mpi.p2p_resubmits"] == 1
