"""The service front: write-through cache, eviction policy, warm import."""

from repro.autotune import TuningStore, workload_key
from repro.autotune.policy import PlanChoice
from repro.serve import TuningService


def key(i=0, space="space-1"):
    return workload_key(32, 32 * 4096, f"cfg{i}", plan_space=space)


def choice(t=4):
    return PlanChoice(n_transport=t, n_qps=2, delta=None)


def test_get_is_cache_first(tmp_path):
    svc = TuningService(tmp_path, n_shards=2)
    svc.commit(key(), choice())
    assert svc.get(key()).choice == choice()
    before = svc.cache.hits
    for _ in range(10):
        assert svc.get(key()) is not None
    assert svc.cache.hits == before + 10


def test_misses_are_negatively_cached(tmp_path):
    svc = TuningService(tmp_path, n_shards=2)
    for _ in range(20):
        assert svc.get(key()) is None
    stats = svc.cache.stats()
    assert stats["misses"] == 1          # one backend read
    assert stats["negative_hits"] == 19  # the storm hit the cache


def test_commit_is_write_through(tmp_path):
    svc = TuningService(tmp_path, n_shards=2)
    svc.get(key())                       # seed a negative entry
    svc.commit(key(), choice(8))
    # The fresh commit must not be shadowed by the cached miss.
    assert svc.get(key()).choice == choice(8)


def test_bounded_shard_evicts_weakest_confidence_first(tmp_path):
    svc = TuningService(tmp_path, n_shards=1, max_entries_per_shard=2)
    svc.commit(key(0), choice(), meta={"rounds_observed": 9})
    svc.commit(key(1), choice(), meta={"rounds_observed": 1})
    svc.commit(key(2), choice(), meta={"rounds_observed": 5})
    assert svc.store.count() == 2
    assert svc.evicted_entries == 1
    # The one-round guess went; the well-observed plans survive.
    assert svc.get(key(1)) is None
    assert svc.get(key(0)) is not None
    assert svc.get(key(2)) is not None


def test_eviction_breaks_confidence_ties_by_recency(tmp_path):
    svc = TuningService(tmp_path, n_shards=1, max_entries_per_shard=2)
    svc.commit(key(0), choice(), meta={"rounds_observed": 3})
    svc.commit(key(1), choice(), meta={"rounds_observed": 3})
    svc.get(key(0))                      # key(0) is now more recent
    svc.commit(key(2), choice(), meta={"rounds_observed": 3})
    assert svc.get(key(1)) is None
    assert svc.get(key(0)) is not None


def test_a_miss_storm_leaves_no_recency_slots(tmp_path):
    """Recency is kept for entries, and only for eviction to read: a
    client probing absent keys must not grow the service."""
    unbounded = TuningService(tmp_path / "u", n_shards=2, negative_ttl=4)
    bounded = TuningService(tmp_path / "b", n_shards=2, negative_ttl=4,
                            max_entries_per_shard=2)
    for svc in (unbounded, bounded):
        for i in range(3):
            svc.commit(key(i), choice(), meta={"rounds_observed": i})
        for i in range(10_000):
            assert svc.get(key(100 + i)) is None
        svc.get(key(1))
        # A CAS on an absent key conflicts at version 0: no entry either.
        assert svc.commit(key(7), choice(), expect_version=3).conflict
    assert len(unbounded._last_access) == 0
    assert 0 < len(bounded._last_access) <= bounded.store.count() <= 4


def test_plan_space_invalidation(tmp_path):
    svc = TuningService(tmp_path, n_shards=2)
    svc.commit(key(0), choice())
    svc.commit(key(1), choice())
    other = key(0, space="space-2")
    svc.commit(other, choice(8))
    assert svc.invalidate_plan_space("space-1") == 2
    assert svc.get(key(0)) is None
    assert svc.get(other).choice == choice(8)


def test_warm_import_from_flat_store(tmp_path):
    flat = TuningStore(tmp_path / "flat")
    flat.put(key(0), choice(4), meta={"rounds_observed": 2})
    flat.put(key(1), choice(8))
    svc = TuningService(tmp_path / "serve", n_shards=4)
    # An entry the service already holds wins over the import.
    svc.commit(key(1), choice(16))
    assert svc.warm(tmp_path / "flat") == 1
    assert svc.get(key(0)).choice == choice(4)
    assert svc.get(key(1)).choice == choice(16)


def test_warm_import_from_sharded_root(tmp_path):
    src = TuningService(tmp_path / "src", n_shards=2)
    src.commit(key(0), choice())
    src.commit(key(1), choice())
    dst = TuningService(tmp_path / "dst", n_shards=4)
    assert dst.warm(tmp_path / "src") == 2
    assert dst.store.count() == 2


def test_stats_shape(tmp_path):
    svc = TuningService(tmp_path, n_shards=3)
    svc.commit(key(), choice())
    svc.get(key())
    stats = svc.stats()
    assert stats["n_shards"] == 3
    assert stats["entries"] == 1
    assert len(stats["shard_counts"]) == 3
    assert stats["commits"] == 1
    assert stats["gets"] == 1
    assert "hit_rate" in stats["cache"]
