"""Result cache: hit/miss semantics, atomicity, fingerprint invalidation."""

import json
import os
import pathlib

import pytest

from repro.exp.cache import ResultCache
from repro.exp.spec import Scenario

ROOT = pathlib.Path(__file__).resolve().parents[2]


def make_point(**params):
    return Scenario.make("overhead", **params)


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    point = make_point(n_user=32)
    digest = point.digest("fp")
    assert cache.get(digest) is None
    cache.put(digest, point, "fp", {"mean_time": 1.5})
    assert cache.get(digest) == {"mean_time": 1.5}
    assert len(cache) == 1


def test_fingerprint_change_invalidates(tmp_path):
    cache = ResultCache(tmp_path)
    point = make_point(n_user=32)
    cache.put(point.digest("code-v1"), point, "code-v1",
              {"mean_time": 1.5})
    assert cache.get(point.digest("code-v2")) is None
    assert cache.get(point.digest("code-v1")) == {"mean_time": 1.5}


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    point = make_point(n_user=32)
    digest = point.digest("fp")
    cache.put(digest, point, "fp", {"mean_time": 1.5})
    cache.path(digest).write_text("{not json", encoding="utf-8")
    assert cache.get(digest) is None


def test_schema_mismatch_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    point = make_point(n_user=32)
    digest = point.digest("fp")
    cache.put(digest, point, "fp", {"mean_time": 1.5})
    entry = json.loads(cache.path(digest).read_text(encoding="utf-8"))
    entry["schema"] = "someone-else/v9"
    cache.path(digest).write_text(json.dumps(entry), encoding="utf-8")
    assert cache.get(digest) is None


@pytest.mark.parametrize("body", [
    b"[1, 2]",                  # JSON, but not an object
    b"\xff\xfe\x00garbage\x80",  # not UTF-8
    b'{"schema": "repro-exp-cache/v1"}',  # no metrics
], ids=["list", "not-utf8", "no-metrics"])
def test_a_malformed_entry_is_a_miss(tmp_path, body):
    cache = ResultCache(tmp_path)
    cache.path("d").write_bytes(body)
    assert cache.get("d") is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_put_is_atomic_no_tmp_left_behind(tmp_path):
    cache = ResultCache(tmp_path)
    point = make_point(n_user=32)
    cache.put(point.digest("fp"), point, "fp", {"mean_time": 1.5})
    leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".json"]
    assert leftovers == []


def test_floats_round_trip_bit_exactly(tmp_path):
    cache = ResultCache(tmp_path)
    point = make_point(n_user=32)
    digest = point.digest("fp")
    value = 1.0 / 3.0
    cache.put(digest, point, "fp", {"mean_time": value})
    assert cache.get(digest)["mean_time"].hex() == value.hex()


def test_missing_directory_created_lazily(tmp_path):
    cache = ResultCache(tmp_path / "deep" / "cache")
    point = make_point(n_user=32)
    assert cache.get(point.digest("fp")) is None
    cache.put(point.digest("fp"), point, "fp", {"mean_time": 2.0})
    assert cache.get(point.digest("fp")) == {"mean_time": 2.0}


_RACER = """
import sys
directory, which, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
if which == "cache":
    from repro.exp.cache import ResultCache
    from repro.exp.spec import Scenario

    cache = ResultCache(directory)
    point = Scenario.make("overhead", n_user=32)
    for i in range(n):
        cache.put("d", point, "fp", {"mean_time": float(i)})
else:
    from repro.exp.store import ResultStore

    store = ResultStore(directory)
    for i in range(n):
        store.write("row", {"series": {"s": [i]}}, profile="fast",
                    fingerprint="fp", metric={})
"""


@pytest.mark.parametrize("which", ["cache", "store"])
def test_two_writers_never_collide_and_a_reader_never_sees_a_torn_file(
        tmp_path, which):
    """Two processes rewrite one entry while this one reads it: with a
    shared temp name, writers failed with FileNotFoundError (one's
    rename took the other's temp file) and reads saw half-written JSON."""
    import subprocess
    import sys

    target = tmp_path / ("d.json" if which == "cache" else "row.json")
    writers = [subprocess.Popen(
        [sys.executable, "-c", _RACER, str(tmp_path), which, "250"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stderr=subprocess.PIPE, text=True) for _ in range(2)]
    reads = torn = 0
    while any(w.poll() is None for w in writers):
        try:
            text = target.read_text()
        except FileNotFoundError:
            continue
        reads += 1
        try:
            json.loads(text)
        except ValueError:
            torn += 1
    errors = [w.stderr.read() for w in writers]
    assert [w.returncode for w in writers] == [0, 0], errors
    assert reads > 0 and torn == 0
    assert [p.name for p in tmp_path.iterdir()] == [target.name]
