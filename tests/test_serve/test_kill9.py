"""kill -9 anywhere on the write path of every store the program keeps.

A worker process loops writes over eight keys and acknowledges each
version on a pipe once the call has returned.  The stores:

* ``service`` — CAS commits through ``TuningService`` (serve shards);
* ``flat`` — unlocked ``TuningStore.put`` (autotune entries);
* ``cache`` — ``ResultCache.put`` (the sweep-point cache);
* ``results`` — ``ResultStore.write`` (result artifacts);
* ``manifest`` — first opens of fresh ``ShardedStore`` roots, each
  creating its ``serve.json`` (the key is the root's index).

The test SIGKILLs the worker after a seeded random delay, audits the
store, and starts the next worker on the same root, twenty times.
Whatever instant the kill lands on, every file a reader would take must
be whole, no key may fall below a version its writer acknowledged, and
what a dead writer leaves behind (a ``<pid>-<n>.tmp``, ``.lock`` files)
must neither be counted, nor served, nor stall the next writer.  A
planted writer that writes in place instead of through
:mod:`repro.atomic` is caught, store by store; and a ``bench run``
killed mid-sweep resumes from its cache to the uninterrupted series.

Workers are forked from one single-threaded "nursery" subprocess per
test, so the interpreter and ``repro`` are started once, not per round.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.autotune import TuningStore, workload_key
from repro.autotune.policy import PlanChoice
from repro.autotune.store import SCHEMA, entry_digest
from repro.exp.cache import CACHE_SCHEMA, ResultCache
from repro.exp.spec import Scenario
from repro.exp.store import ResultStore, load_result
from repro.serve import ShardedStore, TuningService
from repro.serve.shard import MANIFEST, MANIFEST_SCHEMA

fcntl = pytest.importorskip("fcntl")

N_KEYS = 8
ROUNDS = 20
SRC = str(Path(__file__).resolve().parents[2] / "src")

NURSERY = r"""
import json, os, sys
from repro.autotune import TuningStore, workload_key
from repro.autotune.policy import PlanChoice
from repro.autotune.store import SCHEMA, entry_digest
from repro.exp.cache import CACHE_SCHEMA, ResultCache
from repro.exp.spec import Scenario
from repro.exp import store as exp_store
from repro.exp.store import ResultStore, load_result
from repro.serve import ShardedStore, TuningService, shard

root, mode, writer = sys.argv[1:4]
KEYS = [workload_key(8, 8 * 4096, f"kill-{i}", plan_space="kill9")
        for i in range(%d)]
entry_digest(dict(KEYS[0]))  # the digest's late import, once, not per worker


# The planted bugs: each store's file written where it lives, with no
# temp file beside it and no os.replace / os.link.
def in_place_entry(self, path, key, choice, meta, **extra):
    payload = {"schema": SCHEMA, "key": key, "plan": choice.as_dict(),
               "meta": meta, **extra}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def in_place_point(self, digest, scenario, fingerprint, metrics):
    with open(self.path(digest), "w") as fh:
        json.dump({"schema": CACHE_SCHEMA, "scenario": scenario.as_dict(),
                   "fingerprint": fingerprint, "metrics": metrics}, fh)


def in_place_artifact(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def in_place_manifest(path, data):
    try:
        with open(path, "x") as fh:
            json.dump(json.loads(data), fh)
            fh.write("\n")
    except FileExistsError:
        return False
    return True


if writer == "in-place":
    TuningStore.write = in_place_entry
    ResultCache.put = in_place_point
    exp_store.atomic_write = in_place_artifact
    shard.atomic_create = in_place_manifest


def plan(i, version):
    return PlanChoice(2 ** ((i + version) %% 4 + 1), (i + version) %% 3 + 1)


def ack(i, version):
    os.write(1, b"ack %%d %%d\n" %% (i, version))


def serve():
    service = TuningService(root, n_shards=2, cache_capacity=4)
    versions = []
    for key in KEYS:
        entry = service.get(key)
        versions.append(entry.version if entry is not None else 0)
    while True:
        for i, key in enumerate(KEYS):
            result = service.commit(key, plan(i, versions[i]),
                                    meta={"rounds_observed": versions[i]},
                                    expect_version=versions[i])
            assert result.committed
            versions[i] = result.entry.version
            ack(i, versions[i])


def flat():
    store = TuningStore(root)
    versions = []
    for key in KEYS:
        payload = store.load(store.root / f"{entry_digest(key)}.json")
        versions.append(payload["meta"]["version"] if payload else 0)
    while True:
        for i, key in enumerate(KEYS):
            versions[i] += 1
            store.put(key, plan(i, versions[i]), {"version": versions[i]})
            ack(i, versions[i])


def cache():
    store = ResultCache(root)
    point = Scenario.make("overhead", n_user=8)
    versions = [(store.get(f"point-{i}") or {"version": 0})["version"]
                for i in range(len(KEYS))]
    while True:
        for i, version in enumerate(versions):
            versions[i] = version + 1
            store.put(f"point-{i}", point, "fp", {"version": version + 1})
            ack(i, version + 1)


def results():
    store = ResultStore(f"{root}/results")
    versions = []
    for i in range(len(KEYS)):
        try:
            doc = load_result(f"{root}/results/row{i}.json")
            versions.append(doc["series"]["version"])
        except FileNotFoundError:
            versions.append(0)
    while True:
        for i, version in enumerate(versions):
            versions[i] = version + 1
            store.write(f"row{i}", {"series": {"version": version + 1}},
                        profile="fast", fingerprint="fp", metric={})
            ack(i, version + 1)


def manifest():
    n = len(os.listdir(root))
    while True:
        ShardedStore(f"{root}/r{n}", n_shards=n %% 3 + 1)
        ack(n, 1)
        n += 1


for _ in sys.stdin:  # one line in, one worker out
    pid = os.fork()
    if pid == 0:
        try:
            {"service": serve, "flat": flat, "cache": cache,
             "results": results, "manifest": manifest}[mode]()
        finally:
            os._exit(3)
    os.write(1, b"pid %%d\n" %% pid)
    _, status = os.waitpid(pid, 0)
    os.write(1, b"dead %%d\n" %% status)
""" % N_KEYS

KEYS = [workload_key(8, 8 * 4096, f"kill-{i}", plan_space="kill9")
        for i in range(N_KEYS)]

#: A torn temp file as a killed writer leaves it.
STRAY = "99999-0.tmp"


def _whole(path: Path, schema: str) -> dict:
    """A file as a raw reader sees it: whole JSON of ``schema``."""
    doc = json.loads(path.read_text())
    assert doc["schema"] == schema, doc["schema"]
    return doc


class Harness:
    """One nursery, one store root, and what its workers acknowledged."""

    def __init__(self, root: Path, mode: str, writer: str = "as-shipped"):
        self.root, self.mode = root, mode
        self.acked: dict = {}
        self.acks = 0
        #: Manifest roots already found whole (a manifest is written once).
        self.whole_roots: set = set()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        self.nursery = subprocess.Popen(
            [sys.executable, "-c", NURSERY, str(root), mode, writer],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env)

    def close(self):
        self.nursery.stdin.close()
        try:
            self.nursery.wait(timeout=10)
        finally:
            self.nursery.kill()
            self.nursery.wait()
            self.nursery.stdout.close()
            self.nursery.stderr.close()

    def _line(self) -> list:
        line = self.nursery.stdout.readline()
        if not line:
            raise AssertionError(
                f"nursery died: {self.nursery.stderr.read()}")
        return line.split()

    def kill_one_worker(self, delay: float) -> None:
        """Start a worker, SIGKILL it ``delay`` seconds later, and take
        in every version it acknowledged."""
        self.nursery.stdin.write("go\n")
        self.nursery.stdin.flush()
        pid = None
        while True:
            word, *numbers = self._line()
            if word == "ack":
                i, version = map(int, numbers)
                self.acked[i] = max(self.acked.get(i, 0), version)
                self.acks += 1
            elif word == "pid":
                pid = int(numbers[0])
                time.sleep(delay)
                os.kill(pid, signal.SIGKILL)
            else:
                assert word == "dead" and pid is not None
                status = int(numbers[0])
                # Killed by us — not dead of a failed assertion.
                assert os.WIFSIGNALED(status), self.nursery.stderr.read()
                assert os.WTERMSIG(status) == signal.SIGKILL
                return

    def entry_files(self) -> list:
        return sorted(p for p in self.root.rglob("*.json")
                      if p.name != MANIFEST)

    def versions(self) -> dict:
        """Key → the version on disk, as a reader of the store takes
        it; raises on a file no reader may be handed."""
        if self.mode in ("service", "flat"):
            found = {}
            for path in self.entry_files():
                payload = _whole(path, SCHEMA)
                assert entry_digest(payload["key"]) == path.stem
                PlanChoice.from_dict(payload["plan"])
                found[path.stem] = int(
                    payload["version"] if self.mode == "service"
                    else payload["meta"]["version"])
            return {i: found.get(entry_digest(key), 0)
                    for i, key in enumerate(KEYS)}
        if self.mode == "cache":
            cache = ResultCache(self.root)
            found = {}
            for path in self.root.glob("*.json"):
                doc = _whole(path, CACHE_SCHEMA)
                assert cache.get(path.stem) == doc["metrics"]
                found[path.stem] = doc["metrics"]["version"]
            return {i: found.get(f"point-{i}", 0) for i in range(N_KEYS)}
        if self.mode == "results":
            found = {}
            for path in self.root.glob("results/*.json"):
                found[path.stem] = load_result(path)["series"]["version"]
            return {i: found.get(f"row{i}", 0) for i in range(N_KEYS)}
        # manifest: a root that has one holds the count its creator asked.
        for root in self.root.iterdir():
            n = int(root.name[1:])
            if n in self.whole_roots or not (root / MANIFEST).exists():
                continue
            assert _whole(root / MANIFEST, MANIFEST_SCHEMA)[
                "n_shards"] == n % 3 + 1
            assert ShardedStore(root).n_shards == n % 3 + 1
            self.whole_roots.add(n)
        return {n: 1 for n in self.whole_roots}

    def violations(self) -> list:
        """What a reader of the store would hold against its writers."""
        try:
            on_disk = self.versions()
        except Exception as exc:  # noqa: BLE001 - each is a finding
            return [f"torn or invalid file ({exc!r})"]
        return [f"key {i}: version {on_disk.get(i, 0)} on disk, "
                f"{version} acknowledged"
                for i, version in sorted(self.acked.items())
                if on_disk.get(i, 0) < version]

    def run(self, rounds: int, low: float, high: float,
            until_found: bool = False) -> None:
        rng = random.Random(9)
        try:
            for _ in range(rounds):
                self.kill_one_worker(rng.uniform(low, high))
                if until_found and self.violations():
                    return
                if not until_found:
                    assert self.violations() == []
        finally:
            self.close()


def _after_the_kills(harness: Harness) -> None:
    """A stray temp file is neither counted nor read, no lock a dead
    worker held stalls anyone, and the next writer moves every key on."""
    root, mode = harness.root, harness.mode
    if mode == "manifest":
        stray_dir = root / f"r{max(harness.whole_roots)}"
    elif mode == "results":
        stray_dir = root / "results"
    else:
        stray_dir = harness.entry_files()[0].parent
    (stray_dir / STRAY).write_text('{\n  "key": {\n    "conf')

    if mode in ("service", "flat"):
        handle = ShardedStore(root) if mode == "service" else TuningStore(
            root)
        assert handle.count() == N_KEYS == len(harness.entry_files())
        shards = handle.shards if mode == "service" else [handle]
        assert sorted(d for shard in shards for d in shard.digests()) == \
            sorted(entry_digest(key) for key in KEYS)
        assert len(handle.entries()) == N_KEYS
        assert handle.corrupt_entries == 0
        locks = list(root.rglob("*.lock"))
        assert len(locks) == (N_KEYS if mode == "service" else 0)
        for lock in locks:
            fd = os.open(lock, os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)
    if mode == "service":
        service = TuningService(root)
        for i, key in enumerate(KEYS):
            seen = service.get(key)
            assert seen.version >= harness.acked[i]
            result = service.commit(key, PlanChoice(4, 1),
                                    expect_version=seen.version)
            assert result.committed
            assert result.entry.version == seen.version + 1
    elif mode == "flat":
        for key in KEYS:
            handle.put(key, PlanChoice(4, 1), {"version": 10 ** 6})
            assert handle.get(key) == PlanChoice(4, 1)
    elif mode == "cache":
        cache = ResultCache(root)
        assert len(cache) == N_KEYS
        point = Scenario.make("overhead", n_user=8)
        for i in range(N_KEYS):
            assert cache.get(f"point-{i}")["version"] >= harness.acked[i]
            cache.put(f"point-{i}", point, "fp", {"version": 10 ** 6})
            assert cache.get(f"point-{i}") == {"version": 10 ** 6}
        assert (cache.hits, cache.misses) == (2 * N_KEYS, 0)
    elif mode == "results":
        store = ResultStore(root / "results")
        for i in range(N_KEYS):
            store.write(f"row{i}", {"series": {"version": 10 ** 6}},
                        profile="fast", fingerprint="fp", metric={})
    else:
        # Every root opens, a killed first opener's included (the next
        # one creates the manifest), and takes an entry.
        for root_n in root.iterdir():
            n = int(root_n.name[1:])
            store = ShardedStore(root_n, n_shards=n % 3 + 1)
            assert store.count() == 0
            store.put(KEYS[0], PlanChoice(4, 1))
            assert store.get(KEYS[0]) == PlanChoice(4, 1)
    assert harness.violations() == []
    if mode == "results":
        assert harness.versions() == {i: 10 ** 6 for i in range(N_KEYS)}


@pytest.mark.parametrize("mode", ["service", "flat", "cache", "results",
                                  "manifest"])
def test_sigkill_anywhere_leaves_a_store_the_next_writer_can_use(
        tmp_path, mode):
    harness = Harness(tmp_path, mode)
    harness.run(ROUNDS, 0.0, 0.025)
    assert harness.acks > 100
    assert len(harness.acked) >= N_KEYS and all(harness.acked.values())
    _after_the_kills(harness)


def test_the_harness_catches_a_writer_that_writes_in_place(tmp_path):
    """The bug this file exists for: an entry written where it lives,
    instead of beside it and renamed, is a torn file to whoever reads
    between the truncate and the last byte — or for ever, after a kill."""
    harness = Harness(tmp_path, "service", writer="in-place")
    harness.run(10 * ROUNDS, 0.005, 0.015, until_found=True)
    assert harness.violations()


@pytest.mark.parametrize("mode", ["cache", "results", "manifest"])
def test_the_harness_catches_an_in_place_writer_of_each_store(
        tmp_path, mode):
    harness = Harness(tmp_path, mode, writer="in-place")
    harness.run(10 * ROUNDS, 0.005, 0.015, until_found=True)
    assert harness.violations()


def test_a_killed_bench_run_resumes_to_the_uninterrupted_series(tmp_path):
    """``bench run`` SIGKILLed once its first points are cached, then
    run again on the same ``--cache-dir``, executes only the rest and
    writes the series an uninterrupted run writes."""
    from repro.cli import main

    def bench_run(out: Path, *cache: str) -> list:
        return ["bench", "run", "fig07", "--profile", "fast", "--quiet",
                "--jobs", "1", "--results-dir", str(out), *cache]

    cache_dir = tmp_path / "cache"
    killed = subprocess.Popen(
        [sys.executable, "-m", "repro.cli",
         *bench_run(tmp_path / "killed", "--cache-dir", str(cache_dir))],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=SRC))
    try:
        deadline = time.monotonic() + 60
        while not list(cache_dir.glob("*.json")):
            assert killed.poll() is None and time.monotonic() < deadline
            time.sleep(0.001)
    finally:
        killed.kill()
        killed.wait()
    cached = len(list(cache_dir.glob("*.json")))
    (cache_dir / STRAY).write_text('{"schema": "repro-exp-cache/v1", "sc')

    assert main(bench_run(tmp_path / "resumed",
                          "--cache-dir", str(cache_dir))) == 0
    assert main(bench_run(tmp_path / "whole", "--no-cache")) == 0
    assert not (tmp_path / "killed").exists()
    resumed = load_result(tmp_path / "resumed" / "fig07.json")
    whole = load_result(tmp_path / "whole" / "fig07.json")
    assert resumed["series"] == whole["series"]
    unique = whole["run"]["unique"]
    assert 0 < cached < unique
    assert resumed["run"]["cache_hits"] == cached
    assert resumed["run"]["executed"] == unique - cached
