"""The timed round loop every driver runs (Sections V-B, V-C, V-D).

All of the paper's numbers come from one loop: the ranks meet at a
barrier, each runs one round of its program (``MPI_Start``, threads
compute and ``MPI_Pready``, ``MPI_Wait``), and the round's time is the
slowest rank's finish minus the barrier release, with the warm-up
rounds dropped.  :func:`spawn_rounds` is that loop; a driver only
builds its requests and says what one round does.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.sim.sync import SimBarrier


class RoundClock:
    """Release and finish stamps of every round of one driver."""

    def __init__(self, iterations: int, warmup: int, n_ranks: int):
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        if warmup < 0:
            raise ConfigError(f"warmup must be >= 0, got {warmup}")
        self.warmup = warmup
        #: Barrier-release time of each round (stamped by rank 0).
        self.start = np.zeros(warmup + iterations)
        #: ``finish[it, index]``: when rank ``index`` ended round ``it``.
        self.finish = np.zeros((warmup + iterations, n_ranks))
        #: Ranks that ran every round to the end.
        self.done = 0

    def times(self) -> list[float]:
        """Per-round time (slowest finish - release), warm-up dropped."""
        return [float(self.finish[it].max() - self.start[it])
                for it in range(self.warmup, len(self.start))]


class RoundTimes:
    """Result mixin: the means over per-round ``times`` and ``compute``."""

    @property
    def critical_path_compute(self) -> float:
        """One phase: ranks compute in parallel (the sweep overrides)."""
        return self.compute

    @property
    def mean_time(self) -> float:
        return float(np.mean(self.times))

    @property
    def mean_comm_time(self) -> float:
        """Mean round time minus the critical-path compute."""
        return float(np.mean(
            [t - self.critical_path_compute for t in self.times]))


def spawn_rounds(cluster, procs, iterations: int, warmup: int, setup,
                 on_release=None) -> RoundClock:
    """Spawn one round-loop process per rank; does not advance the clock.

    ``setup(index, proc)`` runs first thing inside rank ``index``'s own
    simulation process — so request inits happen in rank order — and
    returns ``one_round(it)``, a generator run once per round between
    the barrier and that rank's finish stamp.  Rank 0, as it leaves the
    barrier, stamps the release and calls ``on_release(it)`` before its
    own ``one_round``.  A run that measures nothing (``iterations < 1``,
    ``warmup < 0``) is a :class:`~repro.errors.ConfigError`.
    """
    env = cluster.env
    barrier = SimBarrier(env, parties=len(procs))
    clock = RoundClock(iterations, warmup, len(procs))

    def rank_program(index, proc):
        one_round = setup(index, proc)
        for it in range(warmup + iterations):
            yield barrier.wait()
            if index == 0:
                clock.start[it] = env.now
                if on_release is not None:
                    on_release(it)
            yield from one_round(it)
            clock.finish[it, index] = env.now
        clock.done += 1

    for index, proc in enumerate(procs):
        cluster.spawn(rank_program(index, proc))
    return clock
