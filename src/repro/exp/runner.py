"""The sweep runner: fan points out, cache everything, stay bit-exact.

Every sweep point is self-contained (its own cluster, its own seeded
RNG streams), so the runner is free to execute points in any order in
any process: results are identical whether ``jobs=1`` runs them inline
or ``jobs=N`` fans them across a :class:`ProcessPoolExecutor`.  The
determinism guard in ``tests/test_exp/test_determinism.py`` holds the
runner to that.

With a :class:`~repro.exp.cache.ResultCache` attached, completed
points are persisted as soon as they finish — a killed sweep resumes
re-running only the points that never completed, and repeat runs of an
unchanged tree are pure cache reads.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.exp.cache import ResultCache
from repro.exp.fingerprint import code_fingerprint
from repro.exp.kinds import run_point
from repro.exp.spec import Scenario, dedup


@dataclass
class RunStats:
    """Bookkeeping of one :meth:`Runner.run` call."""

    points: int = 0
    unique: int = 0
    cache_hits: int = 0
    executed: int = 0


class Runner:
    """Execute scenarios serially or across worker processes."""

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 fingerprint: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.fingerprint = (
            fingerprint if fingerprint is not None
            else (code_fingerprint() if cache is not None else ""))
        self.progress = progress
        self.last_stats = RunStats()

    def _note(self, message: str) -> None:
        if self.progress:
            self.progress(message)

    def run(self, points: Sequence[Scenario]) -> dict[Scenario, dict]:
        """All results, keyed by scenario (duplicates share one entry)."""
        unique = dedup(points)
        stats = RunStats(points=len(points), unique=len(unique))
        self.last_stats = stats
        results: dict[Scenario, dict] = {}
        todo: list[Scenario] = []
        for point in unique:
            cached = (self.cache.get(point.digest(self.fingerprint))
                      if self.cache else None)
            if cached is not None:
                results[point] = cached
                stats.cache_hits += 1
            else:
                todo.append(point)
        if stats.cache_hits:
            self._note(f"{stats.cache_hits}/{len(unique)} points cached")
        if self.jobs == 1 or len(todo) <= 1:
            for i, point in enumerate(todo):
                self._note(f"run {i + 1}/{len(todo)}: {point.kind} "
                           f"{point.key}")
                self._complete(point, run_point(point.as_dict()),
                               results, stats)
        else:
            self._run_pool(todo, results, stats)
        return results

    def _run_pool(self, todo: list[Scenario],
                  results: dict[Scenario, dict], stats: RunStats) -> None:
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            pending = {pool.submit(run_point, point.as_dict()): point
                       for point in todo}
            for done, future in enumerate(as_completed(pending), 1):
                point = pending[future]
                self._note(f"done {done}/{len(todo)}: "
                           f"{point.kind} {point.key}")
                self._complete(point, future.result(), results, stats)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _complete(self, point: Scenario, metrics: dict,
                  results: dict[Scenario, dict], stats: RunStats) -> None:
        results[point] = metrics
        stats.executed += 1
        if self.cache is not None:
            self.cache.put(point.digest(self.fingerprint), point,
                           self.fingerprint, metrics)
