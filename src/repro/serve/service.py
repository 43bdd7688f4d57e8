"""The service front: cache + shards + eviction under one lock.

:class:`TuningService` is what a deployment would run as the
long-lived process.  It owns a :class:`~repro.serve.shard.ShardedStore`
and a write-through :class:`~repro.serve.cache.PlanCache`, and adds
the policies a shared backend needs:

* **bounded shards** — each shard holds at most
  ``max_entries_per_shard`` entries.  When a commit would overflow its
  shard, the service evicts the weakest entry first: lowest
  *confidence* (``rounds_observed`` from the autotuner's commit meta),
  then least-recently-accessed, then digest order — so a plan that a
  policy spent many rounds converging on outlives a one-shot guess.
* **plan-space invalidation** — when a policy's searched plan space
  changes, its PR7 plan-IR digest changes with it; purging by the old
  digest removes exactly the entries that can never be looked up again.
* **warm import** — bulk-load an existing flat ``TuningStore``
  directory (or another sharded root) so a new service starts hot.

Access recency is logical (a tick per request that found or wrote an
entry), not wall-clock, so eviction order is deterministic under
seeded replay.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional, Union

from repro.autotune.policy import PlanChoice
from repro.autotune.store import TuningStore, entry_digest
from repro.errors import ReproError
from repro.serve.cache import PlanCache
from repro.serve.shard import CommitResult, ServedEntry, ShardedStore


class TuningService:
    """Thread-safe plan server over a sharded store."""

    def __init__(self, root: Union[str, Path],
                 n_shards: Optional[int] = None,
                 cache_capacity: int = 1024, negative_ttl: int = 256,
                 max_entries_per_shard: int = 0):
        self.store = ShardedStore(root, n_shards=n_shards)
        self.cache = PlanCache(capacity=cache_capacity,
                               negative_ttl=negative_ttl)
        #: 0 = unbounded; otherwise evict to stay at or under this.
        self.max_entries_per_shard = max_entries_per_shard
        self._lock = threading.RLock()
        #: digest → logical tick of the last get/commit that found or
        #: wrote its entry (eviction recency).  Kept only while the
        #: shard bound is on — eviction is its one reader — and an
        #: absent key never gets a slot, so a miss storm cannot grow it.
        self._last_access: dict[str, int] = {}
        self._tick = 0
        self.gets = 0
        self.commit_requests = 0
        self.invalidations = 0
        self.evicted_entries = 0

    # -- reads ----------------------------------------------------------

    def get(self, key: dict) -> Optional[ServedEntry]:
        """The current entry for ``key`` (cache-first), or None."""
        digest = entry_digest(key)
        with self._lock:
            self.gets += 1
            state, entry = self.cache.lookup(digest)
            if state == "negative":
                return None
            if state == "miss":
                entry = self.store._read(digest)
                self.cache.fill(digest, entry)
            if entry is not None:
                self._touch(digest)
            return entry

    def get_plan(self, key: dict) -> Optional[PlanChoice]:
        entry = self.get(key)
        return entry.choice if entry is not None else None

    # -- writes ---------------------------------------------------------

    def commit(self, key: dict, choice: PlanChoice,
               meta: Optional[dict] = None,
               expect_version: Optional[int] = None) -> CommitResult:
        """Write-through commit (CAS when ``expect_version`` given)."""
        digest = entry_digest(key)
        with self._lock:
            self.commit_requests += 1
            result = self.store._commit(digest, key, choice, meta,
                                        expect_version)
            # Cache the authoritative entry either way: on conflict it
            # is the winner the client should refresh against.
            if result.entry.version > 0:
                self.cache.fill(digest, result.entry)
                self._touch(digest)
            if result.committed:
                self._bound_shard(self.store.shard_of_digest(digest),
                                  keep=digest)
            return result

    def _touch(self, digest: str) -> None:
        """Note that a request found or wrote ``digest``'s entry."""
        if self.max_entries_per_shard > 0:
            self._tick += 1
            self._last_access[digest] = self._tick

    def _bound_shard(self, index: int, keep: str) -> None:
        """Evict from one shard until it respects the bound.

        Victim order: lowest confidence, then least recently accessed,
        then digest — deterministic given the request sequence.  The
        just-committed entry (``keep``) is never the victim.
        """
        if self.max_entries_per_shard <= 0:
            return
        shard = self.store.shards[index]
        while shard.count() > self.max_entries_per_shard:
            candidates = []
            for digest in shard.digests():
                if digest == keep:
                    continue
                payload = shard.load(shard.root / f"{digest}.json")
                meta = (payload or {}).get("meta") or {}
                confidence = int(meta.get("rounds_observed", 0) or 0)
                recency = self._last_access.get(digest, 0)
                candidates.append((confidence, recency, digest))
            if not candidates:
                return
            _, _, victim = min(candidates)
            if self.store._delete_path(shard.root / f"{victim}.json"):
                self.evicted_entries += 1
            self.cache.invalidate(victim)
            self._last_access.pop(victim, None)

    # -- maintenance ----------------------------------------------------

    def invalidate_plan_space(self, plan_space_digest: str) -> int:
        """Drop every entry tuned against one plan-space digest."""
        with self._lock:
            removed = self.store.purge_plan_space(plan_space_digest)
            # Any of the purged digests may be cached; a targeted
            # invalidation would need digest→key reverse mapping, so a
            # full drop is the simple correct move for a rare event.
            self.cache.clear()
            self.invalidations += removed
            return removed

    def warm(self, source_root: Union[str, Path]) -> int:
        """Bulk-import entries from a flat store or sharded root.

        Existing entries in the service win (a warm import never
        regresses a newer plan).  Returns the number imported.
        """
        source = Path(source_root)
        roots = [source]
        # A sharded root holds its entries one level down.
        roots.extend(sorted(p for p in source.glob("shard-*")
                            if p.is_dir()))
        imported = 0
        with self._lock:
            for root in roots:
                flat = TuningStore(root)
                for payload in flat.entries():
                    key = payload.get("key")
                    if not isinstance(key, dict):
                        continue
                    try:
                        choice = PlanChoice.from_dict(payload["plan"])
                    except (KeyError, TypeError, ValueError, ReproError):
                        continue
                    if self.store.read(key) is not None:
                        continue
                    self.store.commit(key, choice,
                                      meta=payload.get("meta") or {})
                    imported += 1
        return imported

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            shard_counts = [shard.count() for shard in self.store.shards]
            return {
                "root": str(self.store.root),
                "n_shards": self.store.n_shards,
                "entries": sum(shard_counts),
                "shard_counts": shard_counts,
                "max_entries_per_shard": self.max_entries_per_shard,
                "gets": self.gets,
                "commit_requests": self.commit_requests,
                "commits": self.store.commits,
                "conflicts": self.store.conflicts,
                "corrupt_entries": self.store.corrupt_entries,
                "evicted_entries": self.evicted_entries,
                "invalidations": self.invalidations,
                "cache": self.cache.stats(),
            }
