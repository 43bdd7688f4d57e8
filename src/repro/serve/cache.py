"""Read-mostly LRU plan cache with negative entries.

The service's traffic is read-dominated: a tenant asks for its plan
once per job start, and only the cold minority that explored commits a
write.  The cache therefore optimizes for the hit path (an
``OrderedDict`` move-to-end) and for *miss storms*: when a popular key
has no tuned plan yet, every cold client would otherwise fall through
to a disk read that still finds nothing.  Negative entries remember
"this key had no plan as of tick T" for a bounded number of logical
ticks, so a thundering herd of identical misses costs one backend read
per TTL window instead of one per client.

Time is logical (a tick per cache operation), never wall-clock — the
serve benchmarks must stay deterministic under seeded replay.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.errors import ConfigError
from repro.serve.shard import ServedEntry

#: Sentinel stored for cached misses (negative entries).
_NEGATIVE = None
#: What one probe returns for a digest the cache does not hold.
_ABSENT = object()


class PlanCache:
    """Bounded LRU over digest → :class:`ServedEntry` (or cached miss).

    ``capacity`` bounds positive+negative entries together; the
    least-recently-used entry of either kind is evicted first.
    Negative entries additionally expire after ``negative_ttl`` logical
    ticks so a freshly committed plan is not shadowed by an old miss
    for long.
    """

    def __init__(self, capacity: int = 1024, negative_ttl: int = 256):
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.negative_ttl = negative_ttl
        self._entries: OrderedDict[str, Optional[ServedEntry]] = OrderedDict()
        self._negative_born: dict[str, int] = {}
        self.tick = 0
        self.hits = 0
        self.misses = 0
        self.negative_hits = 0
        self.stale_hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def lookup(self, digest: str):
        """One cached read.  Returns ``(state, entry)``.

        ``state`` is ``"hit"`` (entry present), ``"negative"`` (a
        live cached miss; caller should *not* fall through to the
        backend), or ``"miss"`` (unknown or expired — go to the
        backend and :meth:`fill` the answer).
        """
        self.tick += 1
        value = self._entries.get(digest, _ABSENT)
        if value is _ABSENT:
            self.misses += 1
            return "miss", None
        if value is _NEGATIVE:
            born = self._negative_born.get(digest, self.tick)
            if self.tick - born > self.negative_ttl:
                # Expired negative entry: treat as a stale miss so the
                # backend is consulted again.
                self.stale_hits += 1
                self._drop(digest)
                self.misses += 1
                return "miss", None
            self._entries.move_to_end(digest)
            self.negative_hits += 1
            return "negative", None
        self._entries.move_to_end(digest)
        self.hits += 1
        return "hit", value

    def fill(self, digest: str, entry: Optional[ServedEntry]) -> None:
        """Record a backend answer (``None`` = negative entry)."""
        if digest in self._entries:
            self._drop(digest)
        while len(self._entries) >= self.capacity:
            victim, _ = self._entries.popitem(last=False)
            self._negative_born.pop(victim, None)
            self.evictions += 1
        self._entries[digest] = entry
        if entry is _NEGATIVE:
            self._negative_born[digest] = self.tick

    def invalidate(self, digest: str) -> bool:
        """Forget one digest (e.g. after an external write); True if held."""
        if digest in self._entries:
            self._drop(digest)
            return True
        return False

    def _drop(self, digest: str) -> None:
        del self._entries[digest]
        self._negative_born.pop(digest, None)

    def clear(self) -> None:
        self._entries.clear()
        self._negative_born.clear()

    def stats(self) -> dict:
        lookups = self.hits + self.misses + self.negative_hits
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "negative_entries": sum(
                1 for v in self._entries.values() if v is _NEGATIVE),
            "hits": self.hits,
            "misses": self.misses,
            "negative_hits": self.negative_hits,
            "stale_hits": self.stale_hits,
            "evictions": self.evictions,
            "hit_rate": (self.hits + self.negative_hits) / lookups
            if lookups else 0.0,
        }
