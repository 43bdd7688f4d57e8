"""Tuning-as-a-service: a sharded, cached, concurrent-safe plan server.

The PR4 :class:`~repro.autotune.TuningStore` is a single-process
directory of JSON files.  This package productionizes it into the
shared tuned-plan backend the fleet needs — many concurrent experiment
clients querying and committing learned plans against one long-running
service:

* :class:`~repro.serve.shard.ShardedStore` — digest-prefix shards over
  ``TuningStore``-compatible directories, schema-versioned entries with
  monotonic versions, atomic replace + compare-and-swap commits
  (multi-process safe; the stress test proves no torn or lost entries).
* :class:`~repro.serve.cache.PlanCache` — read-mostly LRU with
  hit/miss/stale counters and negative-entry caching to absorb miss
  storms.
* :class:`~repro.serve.service.TuningService` — the thread-safe
  front: write-through cache, bounded entries per shard with
  LRU + confidence-weighted eviction, warm-from-store bulk import.
* :class:`~repro.serve.client.ServeClient` — the ``PlanStore``
  protocol (``get``/``put``) over the service.  Plug it into
  :func:`~repro.autotune.build_autotuner`/
  :class:`~repro.autotune.AdaptiveAggregator` anywhere a
  ``TuningStore`` is accepted.

Drivers: :func:`~repro.serve.bench.run_serve_bench` (seeded synthetic
client traffic — Zipf keys, mixed get/commit, bursty arrivals),
:func:`~repro.serve.stress.run_multiwriter_stress` (multi-process CAS
safety), and :func:`~repro.serve.fleet.run_served_tenants` (fleet
tenants resolving plans through the service; a warm tenant skips the
exploration a cold one paid for).  See ``docs/SERVE.md``.
"""

from repro.serve.cache import PlanCache
from repro.serve.client import ServeClient
from repro.serve.service import TuningService
from repro.serve.shard import CommitResult, ServedEntry, ShardedStore

__all__ = [
    "CommitResult",
    "PlanCache",
    "ServeClient",
    "ServedEntry",
    "ShardedStore",
    "TuningService",
]
