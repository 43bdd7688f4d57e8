"""The round-loop harness contract (repro.runtime.rounds)."""

import pytest

from repro.errors import ConfigError
from repro.mpi.cluster import Cluster
from repro.runtime.rounds import RoundClock, RoundTimes, spawn_rounds


def _cluster(n):
    cluster = Cluster(n_nodes=n)
    return cluster, cluster.ranks(n)


def test_round_time_is_slowest_finish_minus_rank0_release():
    cluster, procs = _cluster(3)
    work = {0: 1e-3, 1: 3e-3, 2: 2e-3}

    def setup(index, proc):
        def one_round(it):
            yield work[index] * (it + 1)

        return one_round

    clock = spawn_rounds(cluster, procs, 2, 1, setup)
    cluster.run()
    # Round k lasts 3 ms * (k + 1); the next release is its slowest finish.
    assert clock.start.tolist() == pytest.approx([0.0, 3e-3, 9e-3])
    assert clock.finish[1].tolist() == pytest.approx([5e-3, 9e-3, 7e-3])
    # The warm-up round is stamped but not reported.
    assert clock.times() == pytest.approx([6e-3, 9e-3])


def test_setup_runs_in_rank_order_inside_each_ranks_process():
    cluster, procs = _cluster(3)
    calls = []

    def setup(index, proc):
        calls.append(("setup", index, proc.rank, cluster.env.active_process))

        def one_round(it):
            calls.append(("round", index, it))
            yield 1e-6

        return one_round

    spawn_rounds(cluster, procs, 1, 0, setup)
    assert calls == []  # nothing runs until the cluster does
    cluster.run()
    setups = [c for c in calls if c[0] == "setup"]
    assert [(c[1], c[2]) for c in setups] == [(0, 0), (1, 1), (2, 2)]
    owners = [c[3] for c in setups]
    assert all(p is not None for p in owners) and len(set(owners)) == 3
    # Every setup ran before any round.
    assert [c[0] for c in calls] == ["setup"] * 3 + ["round"] * 3


def test_on_release_fires_once_per_round_at_release_time():
    cluster, procs = _cluster(2)
    log = []

    def setup(index, proc):
        def one_round(it):
            log.append(("round", index, it, cluster.env.now))
            yield 1e-3 if index else 2e-3  # rank 0 reaches the barrier last

        return one_round

    clock = spawn_rounds(
        cluster, procs, 3, 0, setup,
        on_release=lambda it: log.append(("release", it, cluster.env.now)))
    cluster.run()
    releases = [e for e in log if e[0] == "release"]
    assert [(e[1], e[2]) for e in releases] == list(
        enumerate(clock.start.tolist()))
    for it in range(3):
        # Rank 0 fires the hook as it leaves the barrier, before its round.
        assert (log.index(("release", it, clock.start[it]))
                < log.index(("round", 0, it, clock.start[it])))
    # Round 0: ranks leave the barrier in spawn order, so the hook
    # precedes every rank's round.
    assert log[0][0] == "release"


def test_spawning_does_not_advance_the_clock_and_jobs_share_one_run():
    cluster, procs = _cluster(4)

    def setup_for(step):
        def setup(index, proc):
            def one_round(it):
                yield step

            return one_round

        return setup

    fast = spawn_rounds(cluster, procs[:2], 2, 0, setup_for(1e-3))
    slow = spawn_rounds(cluster, procs[2:], 2, 1, setup_for(5e-3))
    assert cluster.env.now == 0.0 and fast.done == slow.done == 0
    cluster.run()
    assert fast.times() == pytest.approx([1e-3, 1e-3])
    assert slow.times() == pytest.approx([5e-3, 5e-3])
    assert cluster.env.now == pytest.approx(15e-3)


def test_done_counts_ranks_that_finished_every_round():
    cluster, procs = _cluster(3)
    never = cluster.env.event()

    def setup(index, proc):
        def one_round(it):
            yield never if (index == 2 and it == 1) else 1e-6

        return one_round

    clock = spawn_rounds(cluster, procs, 2, 0, setup)
    cluster.run()
    # Rank 2 blocks in the last round; the others still finish it.
    assert clock.done == 2


@pytest.mark.parametrize("iterations, warmup", [(0, 1), (-3, 0), (2, -1)])
def test_a_run_that_measures_nothing_is_rejected(iterations, warmup):
    cluster, procs = _cluster(2)
    with pytest.raises(ConfigError, match="must be >="):
        spawn_rounds(cluster, procs, iterations, warmup, lambda i, p: None)
    assert len(RoundClock(1, 0, 2).start) == 1  # the smallest legal run


def test_result_means_over_times():
    class Result(RoundTimes):
        compute = 1.0
        times = [3.0, 5.0]

    assert Result().mean_time == 4.0
    assert Result().mean_comm_time == 3.0
