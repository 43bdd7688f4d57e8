"""The serving benchmark: determinism, hit rates, eviction pressure."""

import math

import pytest

from repro.errors import ConfigError
from repro.serve.bench import run_serve_bench

SMALL = dict(n_clients=40, n_requests=600, n_keys=16, seed=5)


def test_bench_is_deterministic():
    assert run_serve_bench(**SMALL) == run_serve_bench(**SMALL)


@pytest.mark.parametrize("zipf_s", [math.nan, math.inf])
def test_a_non_finite_zipf_exponent_is_a_config_error(zipf_s):
    # numpy would end in "Probabilities contain NaN" instead.
    with pytest.raises(ConfigError, match="zipf_s must be finite"):
        run_serve_bench(zipf_s=zipf_s, **SMALL)


def test_zipf_traffic_keeps_the_cache_hot():
    res = run_serve_bench(**SMALL)
    assert res["warm_hit_rate"] > 0.9
    assert res["hit_rate"] > 0.5
    # Hits are served at cache cost; the median lookup never touches
    # a shard queue.
    assert res["p50_latency_us"] < res["p99_latency_us"]
    assert res["p50_latency_us"] < 10.0


def test_commits_and_conflicts_happen():
    res = run_serve_bench(n_clients=40, n_requests=2000, n_keys=8,
                          p_commit=0.3, seed=5)
    assert res["commits"] > 0
    # Many clients CAS-committing against stale views must conflict.
    assert res["conflicts"] > 0


def test_bounded_store_evicts():
    res = run_serve_bench(n_clients=40, n_requests=1000, n_keys=32,
                          p_commit=0.3, seed=5, n_shards=2,
                          max_entries_per_shard=2, cache_capacity=4)
    assert res["store_evictions"] > 0
    assert res["entries"] <= 2 * 2
    assert res["cache_evictions"] > 0


def test_seed_changes_the_traffic():
    a = run_serve_bench(**SMALL)
    b = run_serve_bench(**{**SMALL, "seed": 6})
    assert a != b
