"""Seeded synthetic client traffic against one tuning service.

``ext_serve``'s workhorse: :func:`run_serve_bench` drives thousands of
simulated clients through a single in-process
:class:`~repro.serve.service.TuningService` with the traffic shape a
fleet produces — **Zipf-distributed keys** (a few hot workloads, a
long cold tail), **mixed get/commit** (reads dominate; a miss makes
the client explore and commit), and **bursty arrivals** (job-start
waves separated by idle gaps).

Everything is deterministic under the seed.  Latency is *modeled*, not
measured: each operation has a fixed service cost (cache hits are
served at the front; backend reads and commits queue FIFO per shard),
and arrivals advance on a fixed burst/idle clock — so p50/p99 are
exact functions of the request sequence and can be golden-checked,
while still showing the real phenomena (queueing under bursts, misses
costing an order of magnitude more than hits).
"""

from __future__ import annotations

import tempfile
from typing import Optional

import numpy as np

from repro.autotune.policy import PlanChoice
from repro.autotune.store import workload_key
from repro.errors import ConfigError
from repro.serve.service import TuningService

#: Modeled service costs, microseconds.
CACHE_HIT_US = 2.0
BACKEND_READ_US = 25.0
COMMIT_US = 60.0

#: Arrival clock: requests inside a burst, gap between bursts, and
#: requests per burst.
BURST_INTERARRIVAL_US = 5.0
IDLE_GAP_US = 500.0
BURST_LEN = 32

#: Plan space tag baked into every bench key.
PLAN_SPACE = "serve-bench/v1"


def _bench_key(k: int) -> dict:
    """The k-th synthetic workload key (distinct, canonical)."""
    n_user = 2 ** (k % 6 + 3)
    return workload_key(n_user, n_user * 4096, f"bench-{k // 6}",
                        plan_space=PLAN_SPACE)


def _bench_choice(k: int) -> PlanChoice:
    """The plan a client commits for key ``k`` after exploring."""
    return PlanChoice(n_transport=2 ** (k % 4 + 1), n_qps=k % 5 + 1,
                      delta=float(k % 3) if k % 3 else None)


def _zipf_probs(n_keys: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n_keys + 1, dtype=float)
    weights = ranks ** -s
    return weights / weights.sum()


def run_serve_bench(n_clients: int = 400, n_requests: int = 4000,
                    n_keys: int = 64, zipf_s: float = 1.1,
                    p_commit: float = 0.08,
                    seed: int = 0, n_shards: int = 8,
                    cache_capacity: int = 1024,
                    max_entries_per_shard: int = 0,
                    root: Optional[str] = None) -> dict:
    """Drive seeded synthetic traffic; return metrics (deterministic).

    ``root=None`` serves out of a temporary directory destroyed on
    return, which keeps experiment points pure functions of their
    scenario.
    """
    if not np.isfinite(zipf_s):
        raise ConfigError(f"zipf_s must be finite, got {zipf_s}")
    if root is None:
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
            return run_serve_bench(
                n_clients=n_clients, n_requests=n_requests,
                n_keys=n_keys, zipf_s=zipf_s, p_commit=p_commit,
                seed=seed, n_shards=n_shards,
                cache_capacity=cache_capacity,
                max_entries_per_shard=max_entries_per_shard, root=tmp)

    rng = np.random.default_rng(seed)
    service = TuningService(root, n_shards=n_shards,
                            cache_capacity=cache_capacity,
                            max_entries_per_shard=max_entries_per_shard)
    keys = [_bench_key(k) for k in range(n_keys)]
    probs = _zipf_probs(n_keys, zipf_s)
    key_draws = rng.choice(n_keys, size=n_requests, p=probs)
    client_draws = rng.integers(0, n_clients, size=n_requests)
    op_draws = rng.random(n_requests)

    #: client → key index → last version that client observed.
    seen: list[dict[int, int]] = [dict() for _ in range(n_clients)]
    shard_free = np.zeros(n_shards)
    latencies = np.empty(n_requests)
    cache_served = np.zeros(n_requests, dtype=bool)
    conflicts = 0
    commits = 0
    now = 0.0

    for i in range(n_requests):
        # Bursty arrival clock: tight inter-arrivals inside a burst,
        # an idle gap between bursts (shard queues drain in the gap).
        now += IDLE_GAP_US if (i and i % BURST_LEN == 0) \
            else BURST_INTERARRIVAL_US
        k = int(key_draws[i])
        client = int(client_draws[i])
        key = keys[k]
        shard = service.store.shard_of(key)
        hits_before = (service.cache.hits + service.cache.negative_hits)
        if op_draws[i] < p_commit:
            # The client commits the plan its exploration converged on,
            # CAS-guarded by the version it last saw — stale views are
            # real conflicts, exactly as in a shared deployment.
            expect = seen[client].get(k, 0)
            result = service.commit(
                key, _bench_choice(k),
                meta={"rounds_observed": k % 9 + 1, "client": client},
                expect_version=expect)
            if result.committed:
                commits += 1
            else:
                conflicts += 1
            seen[client][k] = result.entry.version
            start = max(now, shard_free[shard])
            latencies[i] = (start - now) + COMMIT_US
            shard_free[shard] = start + COMMIT_US
        else:
            entry = service.get(key)
            if entry is not None:
                seen[client][k] = entry.version
            from_cache = (service.cache.hits
                          + service.cache.negative_hits) > hits_before
            cache_served[i] = from_cache
            if from_cache:
                latencies[i] = CACHE_HIT_US
            else:
                start = max(now, shard_free[shard])
                latencies[i] = (start - now) + BACKEND_READ_US
                shard_free[shard] = start + BACKEND_READ_US

    is_get = op_draws >= p_commit
    n_gets = int(is_get.sum())
    warm = is_get.copy()
    warm[: n_requests // 2] = False
    n_warm = int(warm.sum())
    stats = service.stats()
    return {
        "n_clients": n_clients,
        "n_requests": n_requests,
        "n_keys": n_keys,
        "zipf_s": zipf_s,
        "gets": n_gets,
        "commits": commits,
        "conflicts": conflicts,
        "hit_rate": float(cache_served[is_get].mean()) if n_gets else 0.0,
        "warm_hit_rate": float(cache_served[warm].mean())
        if n_warm else 0.0,
        "negative_hits": stats["cache"]["negative_hits"],
        "cache_evictions": stats["cache"]["evictions"],
        "store_evictions": stats["evicted_entries"],
        "entries": stats["entries"],
        "p50_latency_us": float(np.percentile(latencies, 50)),
        "p99_latency_us": float(np.percentile(latencies, 99)),
        "mean_latency_us": float(latencies.mean()),
        "max_latency_us": float(latencies.max()),
    }
