"""Sharded backend: routing, versions, CAS, TuningStore compatibility."""

import json
import os
import re
from pathlib import Path

import pytest

from repro.autotune import TuningStore, workload_key
from repro.autotune.policy import PlanChoice
from repro.autotune.store import entry_digest
from repro.errors import ConfigError
from repro.serve import ShardedStore
from repro.serve.shard import MANIFEST


def key(i=0):
    return workload_key(32, 32 * 4096, f"cfg{i}", plan_space="space-1")


def choice(t=4):
    return PlanChoice(n_transport=t, n_qps=2, delta=None)


def test_routing_is_pure_function_of_key(tmp_path):
    a = ShardedStore(tmp_path / "a", n_shards=4)
    b = ShardedStore(tmp_path / "b", n_shards=4)
    for i in range(20):
        assert a.shard_of(key(i)) == b.shard_of(key(i))
        assert 0 <= a.shard_of(key(i)) < 4


def test_manifest_pins_shard_count(tmp_path):
    ShardedStore(tmp_path, n_shards=4)
    # Reopening without a count adopts the pinned geometry.
    assert ShardedStore(tmp_path).n_shards == 4
    assert ShardedStore(tmp_path, n_shards=4).n_shards == 4
    with pytest.raises(ConfigError):
        ShardedStore(tmp_path, n_shards=8)


@pytest.mark.parametrize("body", [
    "[]",
    '{"schema": "repro-serve-store/v1"}',
    '{"schema": "repro-serve-store/v1", "n_shards": "x"}',
    '{"schema": "repro-serve-store/v1", "n_shards": 0}',
    '{"schema": "repro-serve-store/v1", "n_shards": true}',
], ids=["list", "no-count", "str-count", "zero-count", "bool-count"])
def test_a_malformed_manifest_is_a_config_error_naming_it(tmp_path, body):
    manifest = tmp_path / MANIFEST
    manifest.write_text(body + "\n")
    with pytest.raises(ConfigError, match=re.escape(str(manifest))):
        ShardedStore(tmp_path)


@pytest.mark.parametrize("n_shards", [0, True, 2.0])
def test_a_count_the_manifest_could_not_hold_is_refused(tmp_path, n_shards):
    with pytest.raises(ConfigError, match="int >= 1"):
        ShardedStore(tmp_path, n_shards=n_shards)
    assert not (tmp_path / MANIFEST).exists()


def test_commit_versions_are_monotonic(tmp_path):
    store = ShardedStore(tmp_path, n_shards=4)
    for expected in (1, 2, 3):
        result = store.commit(key(), choice(2 ** expected))
        assert result.committed
        assert result.entry.version == expected
    assert store.read(key()).version == 3
    assert store.commits == 3


def test_cas_rejects_stale_accepts_current(tmp_path):
    store = ShardedStore(tmp_path, n_shards=4)
    store.commit(key(), choice(4))
    store.commit(key(), choice(8))
    stale = store.commit(key(), choice(16), expect_version=1)
    assert not stale.committed
    # The loser gets the winning entry back, untouched on disk.
    assert stale.entry.version == 2
    assert store.read(key()).choice == choice(8)
    assert store.conflicts == 1
    fresh = store.commit(key(), choice(16), expect_version=2)
    assert fresh.committed and fresh.entry.version == 3


def test_cas_on_absent_entry_expects_zero(tmp_path):
    store = ShardedStore(tmp_path, n_shards=4)
    missed = store.commit(key(), choice(), expect_version=3)
    assert not missed.committed and missed.entry.version == 0
    landed = store.commit(key(), choice(), expect_version=0)
    assert landed.committed and landed.entry.version == 1


def test_shard_dir_reads_as_plain_tuning_store(tmp_path):
    store = ShardedStore(tmp_path, n_shards=4)
    store.commit(key(), choice(8), meta={"rounds_observed": 5})
    shard_dir = store.shards[store.shard_of(key())].root
    direct = TuningStore(shard_dir).get(key())
    assert direct is not None
    assert direct.as_dict() == store.read(key()).choice.as_dict()
    # Same file stem as the flat store would use (content address).
    assert (shard_dir / f"{entry_digest(key())}.json").exists()


def test_corrupt_entries_counted_not_served(tmp_path):
    store = ShardedStore(tmp_path, n_shards=2)
    store.commit(key(), choice())
    path = store.path_for(key())
    path.write_text("{ not json")
    assert store.read(key()) is None
    assert store.corrupt_entries == 1
    path.write_text(json.dumps({"schema": "alien/v9"}))
    assert store.read(key()) is None
    assert store.corrupt_entries == 2


def test_delete_and_counts(tmp_path):
    store = ShardedStore(tmp_path, n_shards=2)
    for i in range(6):
        store.commit(key(i), choice())
    assert store.count() == 6
    assert sum(shard.count() for shard in store.shards) == 6
    path = store.path_for(key(0))
    assert store._delete_path(path)
    assert not store._delete_path(path)
    assert store.count() == 5


def test_entries_enumeration(tmp_path):
    store = ShardedStore(tmp_path, n_shards=3)
    for i in range(5):
        store.commit(key(i), choice(), meta={"i": i})
    payloads = [payload for shard in store.shards
                for payload in shard.entries()]
    assert len(payloads) == 5
    assert all(p["version"] == 1 for p in payloads)
    assert {p["meta"]["i"] for p in payloads} == set(range(5))


def race_a_second_opener(monkeypatch, root, n_shards):
    """Between the next opener's "no manifest" read and its write,
    another process opens ``root`` with its own geometry."""
    from repro.serve import shard as shard_mod

    real_read_json = shard_mod.read_json
    raced = []

    def read_json(path, schema):
        manifest = real_read_json(path, schema)
        if manifest is None and not raced:
            raced.append(True)
            ShardedStore(root, n_shards=n_shards)
        return manifest

    monkeypatch.setattr(shard_mod, "read_json", read_json)


def test_first_opener_wins_the_manifest_race(tmp_path, monkeypatch):
    """Two openers of a fresh root both read "no manifest"; exactly one
    may create it, and the other must verify against the winner."""
    race_a_second_opener(monkeypatch, tmp_path, n_shards=4)
    with pytest.raises(ConfigError):
        ShardedStore(tmp_path, n_shards=8)
    assert ShardedStore(tmp_path).n_shards == 4
    assert not list(tmp_path.glob("*.tmp"))


def test_manifest_race_loser_adopts_the_pinned_count(tmp_path, monkeypatch):
    race_a_second_opener(monkeypatch, tmp_path, n_shards=4)
    assert ShardedStore(tmp_path).n_shards == 4


def test_entry_lock_survives_a_concurrent_delete(tmp_path, monkeypatch):
    """A writer that opened the lock file just before a delete unlinked
    it must not end up holding a lock nobody else can see."""
    import fcntl

    from repro.serve import shard as shard_mod

    store = ShardedStore(tmp_path, n_shards=2)
    store.commit(key(), choice(4))
    path = store.path_for(key())
    real_flock = fcntl.flock
    raced = []

    def flock(fd, op):
        if not raced:
            # The writer has opened the lock file and is about to
            # block in flock(); an evicting process deletes the entry
            # (and its lock file) first.
            raced.append(True)
            assert ShardedStore(tmp_path)._delete_path(path)
        return real_flock(fd, op)

    monkeypatch.setattr(shard_mod.fcntl, "flock", flock)
    with store._entry_lock(path):
        # Whoever opens the lock path now must find it taken.
        probe = os.open(path.with_suffix(".lock"), os.O_CREAT | os.O_RDWR)
        try:
            with pytest.raises(BlockingIOError):
                real_flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(probe)
    # Deleting leaves no lock file behind.
    store._delete_path(path)
    assert not path.with_suffix(".lock").exists()


#: Rotten files that used to crash the read instead of being counted.
ROTTEN = [b"\xff\xfe\x00garbage\x80", b"[1, 2]\n", b"null\n", b"{ torn"]


@pytest.mark.parametrize("rot", ROTTEN)
def test_rotten_entry_is_a_counted_miss_for_read_and_commit(tmp_path, rot):
    store = ShardedStore(tmp_path, n_shards=2)
    store.commit(key(), choice(4))
    store.commit(key(), choice(8))
    store.path_for(key()).write_bytes(rot)
    assert store.read(key()) is None
    assert store.read(key()) is None
    assert store.corrupt_entries == 2
    # A CAS against the rot sees "absent" (version 0) and may heal it.
    stale = store.commit(key(), choice(16), expect_version=2)
    assert not stale.committed and stale.entry.version == 0
    healed = store.commit(key(), choice(16), expect_version=0)
    assert healed.committed and healed.entry.version == 1
    assert store.corrupt_entries == 4
    assert store.read(key()).choice == choice(16)


def test_warm_import_skips_rotten_entries(tmp_path):
    from repro.serve import TuningService

    flat = TuningStore(tmp_path / "flat")
    flat.put(key(0), choice(4))
    for i, rot in enumerate(ROTTEN):
        (flat.root / f"{i:024x}.json").write_bytes(rot)
    service = TuningService(tmp_path / "served", n_shards=2)
    assert service.warm(flat.root) == 1
    assert service.get(key(0)).choice == choice(4)


# -- identity pins (cut from the code before the request-budget rewrite) ----

def test_path_for_is_a_path_under_the_keys_shard(tmp_path):
    store = ShardedStore(tmp_path, n_shards=4)
    path = store.path_for(key())
    assert isinstance(path, Path)
    assert path == (tmp_path / f"shard-{store.shard_of(key()):02d}"
                    / f"{entry_digest(key())}.json")
    store.commit(key(), choice())
    assert path.exists()


def test_shard_entry_bytes_match_a_plain_tuning_store(tmp_path):
    """A shard is a TuningStore: the served entry is the flat store's
    file plus a ``version`` field, byte for byte."""
    store = ShardedStore(tmp_path / "served", n_shards=4)
    meta = {"rounds_observed": 5, "policy": "bandit"}
    store.commit(key(), choice(4), meta=meta)
    store.commit(key(), PlanChoice(8, 2, delta=3.5e-05), meta=meta)
    served = store.path_for(key())
    flat = TuningStore(tmp_path / "flat")
    flat.write(tmp_path / "flat" / served.name, key(),
               PlanChoice(8, 2, delta=3.5e-05), meta, version=2)
    assert served.read_bytes() == (tmp_path / "flat" / served.name).read_bytes()
    payload = {"schema": "repro-autotune-store/v1", "key": key(),
               "plan": {"n_transport": 8, "n_qps": 2, "delta": 3.5e-05},
               "meta": meta, "version": 2}
    assert served.read_text() == json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n"
    direct = TuningStore(served.parent)
    assert direct.entries() == [payload]
    assert direct.get(key()) == store.read(key()).choice == PlanChoice(
        8, 2, delta=3.5e-05)
    # Only the entry and its lock file live in the shard.
    assert sorted(os.listdir(served.parent)) == [
        served.stem + ".json", served.stem + ".lock"]
