"""Worker-thread teams: the actors that call ``MPI_Pready``.

A :class:`WorkerTeam` models the parallel region of a hybrid MPI+threads
application: ``n_threads`` workers each compute for
``compute + noise_delay`` and then run a per-thread body (typically
``MPI_Pready`` on their partition).  One user partition per thread, as
the paper's benchmarks assign (Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.runtime.noise import NoiseModel
from repro.sim.core import Environment, Event
from repro.sim.process import Process


@dataclass(frozen=True)
class ComputePhase:
    """One round's compute parameters.

    ``jitter_fraction`` models natural thread skew: no two threads
    finish a long compute phase at the same instant on a real machine
    (scheduler ticks, cache effects).  Each thread's compute is extended
    by ``|N(0, jitter_fraction * compute)|``; when the team
    oversubscribes its cores, the skew scales with the oversubscription
    ratio (time slicing).  This is the non-laggard arrival spread behind
    the paper's minimum-δ estimates (Fig. 12: ~35 us at 32 threads and
    100 ms compute — 0.01 % of the phase, the default here).
    """

    compute: float
    noise: NoiseModel
    jitter_fraction: float = 1e-4

    def __post_init__(self):
        if self.compute < 0:
            raise ValueError(f"negative compute time: {self.compute}")
        if self.jitter_fraction < 0:
            raise ValueError(
                f"negative jitter fraction: {self.jitter_fraction}")


class WorkerTeam:
    """Spawns and joins a team of simulated worker threads."""

    def __init__(self, env: Environment, n_threads: int,
                 rng: np.random.Generator, cores: Optional[int] = None):
        if n_threads < 1:
            raise ValueError(f"need at least one thread, got {n_threads}")
        self.env = env
        self.n_threads = n_threads
        self.rng = rng
        self.cores = cores
        self._round = 0

    @classmethod
    def on(cls, cluster, n_threads: int, stream: str) -> "WorkerTeam":
        """A team on one of ``cluster``'s nodes, drawing from ``stream``."""
        return cls(cluster.env, n_threads, cluster.rngs.stream(stream),
                   cores=cluster.config.host.cores_per_node)

    @property
    def oversubscribed(self) -> bool:
        """True when the team exceeds the node's cores."""
        return self.cores is not None and self.n_threads > self.cores

    def run_round(
        self,
        phase: ComputePhase,
        body: Callable[[int], object],
    ) -> Event:
        """One parallel region: compute then per-thread body.

        ``body(thread_id)`` must return a generator (the thread's
        communication actions, e.g. ``pready``).  Returns an event that
        fires when every thread has finished — the last one trips it —
        with the list of per-thread finish times as its value; a thread
        that raises fails it with that exception.
        """
        delays = phase.noise.delays(
            self.n_threads, phase.compute, self._round, self.rng)
        if phase.jitter_fraction > 0 and phase.compute > 0:
            scale = phase.jitter_fraction * phase.compute
            if self.oversubscribed:
                scale *= self.n_threads / self.cores
            delays = delays + np.abs(
                self.rng.normal(0.0, scale, size=self.n_threads))
        self._round += 1
        env = self.env
        done = Event(env)
        finish = [0.0] * self.n_threads
        running = self.n_threads

        def worker(tid: int, extra: float):
            nonlocal running
            try:
                total = phase.compute + extra
                if total > 0:
                    yield total
                result = body(tid)
                if result is not None:
                    yield from result
            except Exception as exc:
                if not done.triggered:
                    done.fail(exc)
                return
            finish[tid] = env.now
            running -= 1
            if not running:
                done.succeed(finish)

        for tid, extra in enumerate(delays.tolist()):
            Process(env, worker(tid, extra))
        return done
