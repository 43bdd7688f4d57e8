"""Run registered experiments: the entry points over the runner.

* :func:`run_experiment` — execute a registered experiment by name,
  optionally writing result artifacts (what ``repro-bench bench run``
  uses before it checks the row's guidelines on the payload);
* :func:`add_run_options` / :func:`run_from_options` — the shared run
  flags and the run they describe, which the CLI builds on.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.errors import ConfigError
from repro.exp.cache import ResultCache
from repro.exp.fingerprint import code_fingerprint
from repro.exp.profiles import PROFILES, Profile, get_profile
from repro.exp.registry import Experiment, ExperimentSpec, get_experiment
from repro.exp.runner import Runner, RunStats
from repro.exp.store import ResultStore

#: Default location of the sweep-point cache (under ``results/`` so a
#: ``results`` wipe also drops stale cache state).
DEFAULT_CACHE_DIR = os.path.join("results", ".cache")


def positive_int(text: str) -> int:
    """``text`` as a count >= 1 (an argparse ``type=``: else a usage error)."""
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def default_jobs() -> int:
    """Worker count when none is given: ``REPRO_BENCH_JOBS`` or 1."""
    raw = os.environ.get("REPRO_BENCH_JOBS", "1")
    try:
        return positive_int(raw)
    except ValueError:
        raise ConfigError(f"REPRO_BENCH_JOBS must be a positive integer, "
                          f"got {raw!r}") from None


@dataclass
class ExperimentRun:
    """Everything :func:`run_experiment` produced."""

    experiment: Experiment
    profile: Profile
    spec: ExperimentSpec
    payload: dict
    stats: RunStats
    elapsed: float
    fingerprint: str
    #: The artifact the run wrote, when a store was given.
    path: Optional[pathlib.Path] = None
    #: Path of the cProfile dump, when the run was profiled.
    cpu_profile: Optional[str] = None

    @property
    def report(self) -> str:
        return self.spec.report(self.payload)


def run_experiment(name: str, profile: Union[str, Profile] = "paper",
                   jobs: Optional[int] = None,
                   cache: Optional[ResultCache] = None,
                   store: Optional[ResultStore] = None,
                   progress: Optional[Callable[[str], None]] = None,
                   ) -> ExperimentRun:
    """Run one registered experiment, optionally persisting artifacts."""
    experiment = get_experiment(name)
    prof = profile if isinstance(profile, Profile) else get_profile(profile)
    spec = experiment.build(prof)
    runner = Runner(jobs=jobs if jobs is not None else default_jobs(),
                    cache=cache, progress=progress)
    start = time.monotonic()
    results = runner.run(spec.points)
    elapsed = time.monotonic() - start
    payload = spec.collect(results)
    fingerprint = runner.fingerprint or code_fingerprint()
    run = ExperimentRun(
        experiment=experiment, profile=prof, spec=spec, payload=payload,
        stats=runner.last_stats, elapsed=elapsed, fingerprint=fingerprint)
    if store is not None:
        metric = dataclasses.asdict(spec.metric)
        if experiment.lower_is_better:
            metric["lower_is_better"] = list(experiment.lower_is_better)
        run.path = store.write(
            name, payload, profile=prof.name, fingerprint=fingerprint,
            metric=metric,
            stats={"points": run.stats.points, "unique": run.stats.unique,
                   "cache_hits": run.stats.cache_hits,
                   "executed": run.stats.executed},
            elapsed=elapsed)
    return run


def add_cache_options(parser: argparse.ArgumentParser) -> None:
    """The sweep-point cache flags (``bench run`` and ``point``)."""
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="sweep-point cache directory "
                             "(default: %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point, touch no cache")


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """The shared run flags of ``repro-bench bench run``."""
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        default="paper",
                        help="workload preset (default: %(default)s)")
    parser.add_argument("--jobs", "-j", type=positive_int, default=None,
                        help="worker processes (default: "
                             "$REPRO_BENCH_JOBS or 1)")
    add_cache_options(parser)
    parser.add_argument("--results-dir", default="results",
                        help="directory for <name>.json artifacts "
                             "(default: %(default)s)")
    parser.add_argument("--no-store", action="store_true",
                        help="print the table only, write no artifacts")
    parser.add_argument("--profile-cpu", metavar="PATH", nargs="?",
                        const="", default=None,
                        help="run under cProfile and write a pstats dump "
                             "to PATH (default: profile_<name>.pstats); "
                             "in-process points only, so pair with the "
                             "default --jobs 1")


def run_from_options(name: str, options: argparse.Namespace,
                     progress: Optional[Callable[[str], None]] = None,
                     ) -> ExperimentRun:
    """Execute an experiment as the parsed run flags describe."""
    cache = None if options.no_cache else ResultCache(options.cache_dir)
    store = None if options.no_store else ResultStore(options.results_dir)
    profile_cpu = getattr(options, "profile_cpu", None)
    execute = functools.partial(
        run_experiment, name, profile=options.profile, jobs=options.jobs,
        cache=cache, store=store, progress=progress)
    if profile_cpu is None:
        return execute()
    # CPU profiling: wrap the whole run (build, simulate, collect) in
    # cProfile.  Worker subprocesses are invisible to the profiler, so
    # profiled runs should stay at the default --jobs 1.
    import cProfile

    path = profile_cpu or f"profile_{name}.pstats"
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run = execute()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
    run.cpu_profile = path
    return run

