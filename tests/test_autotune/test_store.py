"""TuningStore counting and corruption visibility (ISSUE 10 satellites)."""

import io
import json
import os
import stat
import sys
import threading

import pytest

from repro.autotune import TuningStore, workload_key
from repro.autotune import store as store_mod
from repro.autotune.policy import PlanChoice
from repro.autotune.store import SCHEMA


def key(i=0):
    return workload_key(32, 32 * 4096, f"cfg{i}", plan_space="s")


def test_count_is_cheap_and_matches_len(tmp_path):
    store = TuningStore(tmp_path)
    assert store.count() == 0 == len(store)
    for i in range(4):
        store.put(key(i), PlanChoice(4, 1))
    assert store.count() == 4 == len(store)
    # Stray non-entry files don't count.
    (tmp_path / "scratch.tmp").write_text("x")
    assert store.count() == 4


def test_corrupt_entries_are_counted_and_skipped(tmp_path):
    store = TuningStore(tmp_path)
    store.put(key(0), PlanChoice(4, 1))
    store.put(key(1), PlanChoice(8, 1))
    store._path(key(0)).write_text("{ torn")
    assert store.get(key(0)) is None
    assert store.corrupt_entries == 1
    # entries() skips the bad file but still validates the rest.
    assert len(store.entries()) == 1
    assert store.corrupt_entries == 2
    # count() deliberately includes it: it is a file on disk.
    assert store.count() == 2


def test_alien_schema_counts_as_corrupt(tmp_path):
    store = TuningStore(tmp_path)
    store.put(key(0), PlanChoice(4, 1))
    store._path(key(0)).write_text(json.dumps({"schema": "other/v1"}))
    assert store.get(key(0)) is None
    assert store.corrupt_entries == 1


def test_missing_entry_is_a_miss_not_corruption(tmp_path):
    store = TuningStore(tmp_path)
    assert store.get(key(0)) is None
    assert store.corrupt_entries == 0


def test_bad_plan_dict_counts_as_corrupt(tmp_path):
    store = TuningStore(tmp_path)
    path = store.put(key(0), PlanChoice(4, 1))
    payload = json.loads(path.read_text())
    payload["plan"] = {"n_transport": 3, "n_qps": 1}  # not a power of 2
    path.write_text(json.dumps(payload))
    assert store.get(key(0)) is None
    assert store.corrupt_entries == 1


#: Rotten files that used to crash ``load`` instead of being counted:
#: not UTF-8 at all, and valid JSON that is not an object.
ROTTEN = [b"\xff\xfe\x00garbage\x80", b"[1, 2]\n", b"null\n", b"3\n",
          b"{ torn"]


@pytest.mark.parametrize("rot", ROTTEN)
def test_rotten_entry_reads_as_a_counted_miss(tmp_path, rot):
    store = TuningStore(tmp_path)
    store.put(key(0), PlanChoice(4, 1))
    store.put(key(1), PlanChoice(8, 1))
    store._path(key(0)).write_bytes(rot)
    assert store.get(key(0)) is None
    assert store.corrupt_entries == 1
    assert store.lookup(32, 32 * 4096, "cfg0", plan_space="s") is None
    assert store.corrupt_entries == 2
    assert [p["key"] for p in store.entries()] == [key(1)]
    assert store.corrupt_entries == 3
    # A put over the rot heals it.
    store.put(key(0), PlanChoice(2, 1))
    assert store.get(key(0)) == PlanChoice(2, 1)
    assert store.corrupt_entries == 3


def test_load_accepts_str_and_path(tmp_path):
    store = TuningStore(tmp_path)
    path = store.put(key(0), PlanChoice(4, 1))
    assert store.load(path) == store.load(str(path))
    assert store.load(str(path))["plan"] == PlanChoice(4, 1).as_dict()
    assert store.load(str(tmp_path / "absent.json")) is None
    # A directory where an entry should be is rot, not a crash.
    (tmp_path / "dir.json").mkdir()
    assert store.load(tmp_path / "dir.json") is None
    assert store.corrupt_entries == 1


# -- identity pins (cut from the code before the request-budget rewrite) ----

ENTRY_CASES = [
    (PlanChoice(4, 1), {}, {}),
    (PlanChoice(8, 2, delta=3.5e-05),
     {"rounds_observed": 12, "policy": "bandit", "mean_cost": 1e-22,
      "nested": {"b": [1, 2.5, None, []], "a": True, "e": {}}}, {}),
    (PlanChoice(16, 4, delta=0.001, scatter_gather=True),
     {"note": "\u03b4-timer"}, {"version": 7}),
    (PlanChoice(2, 1, delta=0.0, scatter_gather=False),
     {"rounds_observed": 0}, {"version": 1}),
]


@pytest.mark.parametrize("choice, meta, extra", ENTRY_CASES)
def test_entry_file_bytes_are_pinned(tmp_path, choice, meta, extra):
    """An entry file is ``json.dump(payload, indent=2, sort_keys=True)``
    plus a newline, byte for byte: shards, ``autotune show`` and the
    serve fleet's bit-identity audit all read these files."""
    store = TuningStore(tmp_path)
    path = tmp_path / "entry.json"
    store.write(path, key(3), choice, meta, **extra)
    payload = {"schema": SCHEMA, "key": key(3), "plan": choice.as_dict(),
               "meta": meta, **extra}
    expected = io.StringIO()
    json.dump(payload, expected, indent=2, sort_keys=True)
    expected.write("\n")
    assert path.read_bytes() == expected.getvalue().encode()
    assert ("scatter_gather" in payload["plan"]) == choice.scatter_gather
    assert os.listdir(tmp_path) == ["entry.json"]


def test_put_lands_the_pinned_text(tmp_path):
    store = TuningStore(tmp_path)
    path = store.put(workload_key(32, 131072, "niagara", plan_space="s"),
                     PlanChoice(8, 2, delta=3.5e-05), {"rounds_observed": 9})
    assert path.name == "b68bf74561edb00dda0f765d.json"
    assert path.read_text() == """{
  "key": {
    "config": "niagara",
    "message_size": 131072,
    "n_user": 32,
    "plan_space": "s"
  },
  "meta": {
    "rounds_observed": 9
  },
  "plan": {
    "delta": 3.5e-05,
    "n_qps": 2,
    "n_transport": 8
  },
  "schema": "repro-autotune-store/v1"
}
"""


def test_entry_file_is_private_to_its_owner(tmp_path):
    store = TuningStore(tmp_path)
    path = store.put(key(0), PlanChoice(4, 1))
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    # ... and stays so when an existing entry is replaced.
    store.put(key(0), PlanChoice(8, 1))
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600


def test_failed_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    store = TuningStore(tmp_path)
    store.put(key(0), PlanChoice(4, 1))
    before = sorted(os.listdir(tmp_path))

    def refuse(src, dst, **kwargs):
        raise OSError("disk says no")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk says no"):
        store.put(key(0), PlanChoice(8, 1))
    with pytest.raises(OSError, match="disk says no"):
        store.put(key(1), PlanChoice(8, 1))
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == before
    assert not list(tmp_path.glob("*.tmp"))
    assert store.get(key(0)) == PlanChoice(4, 1)


def test_unserialisable_meta_leaves_no_temp_file(tmp_path):
    store = TuningStore(tmp_path)
    with pytest.raises(TypeError):
        store.put(key(0), PlanChoice(4, 1), {"bad": {1, 2}})
    assert os.listdir(tmp_path) == []


def test_a_taken_temp_name_is_skipped_not_reused(tmp_path):
    """Another pid namespace on a shared volume, or a crashed writer,
    can own the very name this process would pick next."""
    store = TuningStore(tmp_path)
    taken = next(store_mod._temp_seq) + 1
    foreign = [tmp_path / f"{os.getpid()}-{taken + i}.tmp" for i in range(3)]
    for path in foreign:
        path.write_text("someone else's half-written entry")
    store.put(key(0), PlanChoice(4, 1))
    assert store.get(key(0)) == PlanChoice(4, 1)
    for path in foreign:
        assert path.read_text() == "someone else's half-written entry"
    assert len(list(tmp_path.glob("*.tmp"))) == 3


def test_unlocked_writers_in_one_process_never_share_a_temp_file(tmp_path):
    """The flat store's ``put`` takes no lock: threads of one process
    (one pid) must still each get a temp file of their own."""
    store = TuningStore(tmp_path)
    n_threads, n_puts = 8, 40
    errors = []

    def writer(w):
        try:
            for i in range(n_puts):
                # Half the puts contend for one key, half are private.
                k = key(0) if i % 2 else key(1000 * (w + 1) + i)
                store.put(k, PlanChoice(2 ** (w % 4 + 1), i % 5 + 1),
                          meta={"writer": w, "seq": i})
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert not list(tmp_path.glob("*.tmp"))
    assert store.count() == 1 + n_threads * n_puts // 2
    assert len(store.entries()) == store.count()
    assert store.corrupt_entries == 0
