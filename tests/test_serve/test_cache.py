"""LRU plan cache: hit/miss accounting, negative entries, eviction."""

import pytest

from repro.autotune.policy import PlanChoice
from repro.errors import ConfigError
from repro.serve import PlanCache, ServedEntry
from repro.serve.cache import NEGATIVE_TTL


def entry(i=0):
    return ServedEntry(key={"i": i}, choice=PlanChoice(4, 1),
                       version=1, meta={})


def test_hit_miss_counters():
    cache = PlanCache(capacity=4)
    state, got = cache.lookup("d0")
    assert (state, got) == ("miss", None)
    cache.fill("d0", entry())
    state, got = cache.lookup("d0")
    assert state == "hit" and got.version == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.stats()["hit_rate"] == 0.5


def test_lru_eviction_order():
    cache = PlanCache(capacity=2)
    cache.fill("a", entry())
    cache.fill("b", entry())
    cache.lookup("a")  # refresh a; b is now LRU
    cache.fill("c", entry())
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.evictions == 1


def test_negative_entries_absorb_miss_storms():
    cache = PlanCache(capacity=8)
    cache.lookup("d")            # miss: caller goes to the backend...
    cache.fill("d", None)        # ...which also misses
    for _ in range(50):
        state, got = cache.lookup("d")
        assert (state, got) == ("negative", None)
    assert cache.negative_hits == 50
    assert cache.misses == 1     # the backend saw exactly one read


def test_negative_entries_expire():
    cache = PlanCache(capacity=8)
    cache.lookup("d")
    cache.fill("d", None)
    assert cache.lookup("d")[0] == "negative"
    for _ in range(NEGATIVE_TTL):  # age the entry past its TTL
        cache.lookup("other")
    assert cache.lookup("d")[0] == "miss"
    assert cache.stale_hits == 1
    # A real entry can now take the slot.
    cache.fill("d", entry())
    assert cache.lookup("d")[0] == "hit"


def test_fill_replaces_negative_with_positive():
    cache = PlanCache(capacity=4)
    cache.fill("d", None)
    cache.fill("d", entry())
    assert cache.lookup("d")[0] == "hit"
    assert cache.stats()["negative_entries"] == 0


def test_invalidate():
    cache = PlanCache(capacity=4)
    cache.fill("d", entry())
    assert cache.invalidate("d")
    assert not cache.invalidate("d")
    assert cache.lookup("d")[0] == "miss"


def test_capacity_validation():
    with pytest.raises(ConfigError):
        PlanCache(capacity=0)
