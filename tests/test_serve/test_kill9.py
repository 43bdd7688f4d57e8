"""kill -9 anywhere on the entry-write path.

A worker process loops writes over eight keys — CAS commits through
``TuningService``, or unlocked ``TuningStore.put`` — and acknowledges
each version on a pipe once the call has returned.  The test SIGKILLs it
after a seeded random delay, audits the store, and starts the next
worker on the same root, twenty times.  Whatever instant the kill lands
on, every entry file must parse, no key may fall below a version its
writer acknowledged, and what a dead writer leaves behind (a
``<pid>-<n>.tmp``, ``.lock`` files) must neither be served nor stall
the next writer.

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
from repro.serve import ShardedStore, TuningService
from repro.serve.shard import MANIFEST

fcntl = pytest.importorskip("fcntl")

N_KEYS = 8
ROUNDS = 20

NURSERY = r"""
import json, os, sys
from repro.autotune import TuningStore, workload_key
from repro.autotune.policy import PlanChoice
from repro.autotune.store import SCHEMA, entry_digest
from repro.serve import TuningService

root, mode, writer = sys.argv[1:4]
KEYS = [workload_key(8, 8 * 4096, f"kill-{i}", plan_space="kill9")
        for i in range(%d)]
entry_digest(dict(KEYS[0]))  # the digest's late import, once, not per worker

if writer == "in-place":
    # The planted bug: no temp file, no os.replace.
    def write(self, path, key, choice, meta, **extra):
        payload = {"schema": SCHEMA, "key": key, "plan": choice.as_dict(),
                   "meta": meta, **extra}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    TuningStore.write = write


def plan(i, version):
    return PlanChoice(2 ** ((i + version) %% 4 + 1), (i + version) %% 3 + 1)


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
            os.write(1, b"ack %%d %%d\n" %% (i, versions[i]))


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
            os.write(1, b"ack %%d %%d\n" %% (i, versions[i]))


for _ in sys.stdin:  # one line in, one worker out
    pid = os.fork()
    if pid == 0:
        try:
            {"service": serve, "flat": flat}[mode]()
        finally:
            os._exit(3)
    os.write(1, b"pid %%d\n" %% pid)
    _, status = os.waitpid(pid, 0)
    os.write(1, b"dead %%d\n" %% status)
""" % N_KEYS

KEYS = [workload_key(8, 8 * 4096, f"kill-{i}", plan_space="kill9")
        for i in range(N_KEYS)]


class Harness:
    """One nursery, one store root, and what its workers acknowledged."""

    def __init__(self, root: Path, mode: str, writer: str = "as-shipped"):
        self.root, self.mode = root, mode
        self.acked = [0] * N_KEYS
        self.acks = 0
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(__file__).resolve().parents[2] / "src")]
            + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
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
                self.acked[i] = max(self.acked[i], version)
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

    def violations(self) -> list:
        """What a reader of the store would hold against its writers."""
        found = []
        on_disk = {}
        for path in self.entry_files():
            try:
                payload = json.loads(path.read_text())
                assert payload["schema"] == SCHEMA
                assert entry_digest(payload["key"]) == path.stem
                PlanChoice.from_dict(payload["plan"])
                version = (payload["version"] if self.mode == "service"
                           else payload["meta"]["version"])
                on_disk[path.stem] = int(version)
            except Exception as exc:  # noqa: BLE001 - each is a finding
                found.append(f"{path.name}: torn or invalid ({exc!r})")
        for i, key in enumerate(KEYS):
            version = on_disk.get(entry_digest(key), 0)
            if version < self.acked[i]:
                found.append(f"key {i}: version {version} on disk, "
                             f"{self.acked[i]} acknowledged")
        return found


@pytest.mark.parametrize("mode", ["service", "flat"])
def test_sigkill_anywhere_leaves_a_store_the_next_writer_can_use(
        tmp_path, mode):
    rng = random.Random(9)
    harness = Harness(tmp_path, mode)
    try:
        for _ in range(ROUNDS):
            harness.kill_one_worker(rng.uniform(0.0, 0.025))
            assert harness.violations() == []
    finally:
        harness.close()
    assert harness.acks > 100 and all(harness.acked)

    # What the dead left behind.  A torn temp file is planted too, so
    # the check does not depend on a kill having landed mid-write.
    some_dir = harness.entry_files()[0].parent
    (some_dir / "99999-0.tmp").write_text('{\n  "key": {\n    "conf')
    handle = ShardedStore(tmp_path) if mode == "service" else TuningStore(
        tmp_path)
    assert handle.count() == N_KEYS == len(harness.entry_files())
    shards = handle.shards if mode == "service" else [handle]
    assert sorted(d for shard in shards for d in shard.digests()) == sorted(
        entry_digest(key) for key in KEYS)
    assert len(handle.entries()) == N_KEYS
    assert handle.corrupt_entries == 0

    # The next writer: every lock a dead worker held is free, and each
    # key takes one more version on top of what is on disk.
    locks = list(tmp_path.rglob("*.lock"))
    assert len(locks) == (N_KEYS if mode == "service" else 0)
    for lock in locks:
        fd = os.open(lock, os.O_RDWR)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        finally:
            os.close(fd)
    if mode == "service":
        service = TuningService(tmp_path)
        for i, key in enumerate(KEYS):
            seen = service.get(key)
            assert seen.version >= harness.acked[i]
            result = service.commit(key, PlanChoice(4, 1),
                                    expect_version=seen.version)
            assert result.committed
            assert result.entry.version == seen.version + 1
    else:
        for key in KEYS:
            handle.put(key, PlanChoice(4, 1), {"version": 10 ** 6})
            assert handle.get(key) == PlanChoice(4, 1)
    assert harness.violations() == []


def test_the_harness_catches_a_writer_that_writes_in_place(tmp_path):
    """The bug this file exists for: an entry written where it lives,
    instead of beside it and renamed, is a torn file to whoever reads
    between the truncate and the last byte — or for ever, after a kill."""
    rng = random.Random(9)
    harness = Harness(tmp_path, "service", writer="in-place")
    try:
        for _ in range(10 * ROUNDS):
            harness.kill_one_worker(rng.uniform(0.005, 0.015))
            if harness.violations():
                break
    finally:
        harness.close()
    assert harness.violations()
