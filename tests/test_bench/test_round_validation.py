"""Every runner rejects a run that measures nothing (one harness check)."""

import warnings

import pytest

from repro.bench.autotune import run_autotuned_pair
from repro.bench.coll import run_pcoll
from repro.bench.halo import run_halo
from repro.bench.overhead import run_overhead
from repro.bench.perceived import run_perceived_bandwidth
from repro.bench.sweep import run_sweep
from repro.coll import run_stencil
from repro.errors import ConfigError
from repro.fleet import JobSpec, run_fleet
from repro.units import KiB


def _fleet(iterations, warmup):
    return run_fleet([JobSpec(name="p", kind="pair", n_partitions=4,
                              partition_size=4 * KiB,
                              iterations=iterations, warmup=warmup)])


RUNNERS = {
    "run_overhead": lambda **kw: run_overhead(None, 4, 4096, **kw),
    "run_perceived_bandwidth": lambda **kw: run_perceived_bandwidth(
        None, 4, 4096, compute=1e-4, **kw),
    "run_sweep": lambda **kw: run_sweep(
        None, grid=(2, 2), n_threads=2, total_bytes=4096, **kw),
    "run_halo": lambda **kw: run_halo(
        None, grid=(2, 2), n_threads=2, face_bytes=4096, **kw),
    "run_pallreduce": lambda **kw: run_pcoll(
        None, world=3, n_threads=2, partition_size=1024, **kw),
    "run_pbcast": lambda **kw: run_pcoll(
        None, "pbcast", world=3, n_threads=2, partition_size=1024, **kw),
    "run_stencil": lambda **kw: run_stencil(
        None, grid=(2, 2), n_threads=2, face_bytes=4096, **kw),
    "run_autotuned_pair": lambda **kw: run_autotuned_pair(
        {"policy": "bandit"}, n_user=4, total_bytes=4096, **kw),
    "JobSpec": lambda **kw: _fleet(**kw),
}


@pytest.mark.parametrize("name", sorted(RUNNERS))
@pytest.mark.parametrize("iterations, warmup", [(0, 1), (2, -1)])
def test_runner_rejects_empty_or_negative_round_counts(name, iterations,
                                                       warmup):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no "Mean of empty slice" either
        with pytest.raises(ConfigError, match="must be >="):
            RUNNERS[name](iterations=iterations, warmup=warmup)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_runner_accepts_one_measured_round_without_warmup(name):
    RUNNERS[name](iterations=1, warmup=0)
