"""The sharded backend: many ``TuningStore`` directories, one address.

Entries are routed to a shard by a prefix of their content digest
(:func:`repro.autotune.store.entry_digest`), so the shard of a key is a
pure function of the key — any process, thread, or service replica
computes the same route with no coordination.  Each shard *is* a
:class:`~repro.autotune.TuningStore` (this module reads, writes and
enumerates entry files only through it), which keeps two properties
the rest of the repo depends on:

* a service-served plan is **bit-identical** to what a direct
  ``TuningStore(shard_dir).get(key)`` returns (goldens unchanged);
* store tooling (``repro-bench autotune show``) works on a shard.

On top of that layout this module adds what a *shared* backend needs:

* **monotonic versions** — every entry carries ``"version": n``; each
  successful commit bumps it by one under a per-entry advisory lock.
* **compare-and-swap** — a commit carrying ``expect_version`` is
  rejected (no write, conflict counted) when the entry has moved on;
  a commit without one is a *confident overwrite*: the
  last-confident-writer wins, but still with a monotonic version so
  lost updates are detectable.
* **atomic replace** — readers never see a torn entry: writes land in
  a temp file and ``os.replace`` into place (the multi-process stress
  test in :mod:`repro.serve.stress` holds this to zero torn reads).
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.autotune.policy import PlanChoice
from repro.autotune.store import TuningStore, entry_digest
from repro.errors import ConfigError, ReproError

try:  # POSIX advisory locks; the CI and dev containers are Linux.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Manifest file pinning the shard geometry of a store root.
MANIFEST = "serve.json"
MANIFEST_SCHEMA = "repro-serve-store/v1"


@dataclass(frozen=True, slots=True)
class ServedEntry:
    """One versioned entry as the backend returned it."""

    key: dict
    choice: PlanChoice
    version: int
    meta: dict

    def as_dict(self) -> dict:
        return {"key": self.key, "plan": self.choice.as_dict(),
                "version": self.version, "meta": dict(self.meta)}


@dataclass(frozen=True, slots=True)
class CommitResult:
    """Outcome of one commit attempt.

    ``committed`` is False exactly when a compare-and-swap lost the
    race; ``entry`` is then the *current* (winning) entry so the caller
    can refresh and retry.
    """

    entry: ServedEntry
    committed: bool

    @property
    def conflict(self) -> bool:
        return not self.committed


class ShardedStore:
    """Digest-prefix shards of versioned, TuningStore-compatible entries."""

    #: Shard count used for a fresh root when none is requested.
    DEFAULT_SHARDS = 8

    def __init__(self, root: Union[str, Path],
                 n_shards: Optional[int] = None):
        """Open (or create) a sharded root.

        ``n_shards=None`` adopts the count pinned in the root's
        manifest (or :data:`DEFAULT_SHARDS` for a fresh root); an
        explicit count must match an existing manifest.
        """
        if n_shards is not None and n_shards < 1:
            raise ConfigError(f"need at least one shard, got {n_shards}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.n_shards = self._pin_manifest(n_shards)
        #: One flat store per shard; all entry-file I/O goes through it
        #: (and bad files are counted on it).
        self.shards = [TuningStore(self.root / f"shard-{i:02d}")
                       for i in range(self.n_shards)]
        #: (shard, its directory as a string) by shard index: a request
        #: builds its entry path with one format, no ``Path`` arithmetic.
        self._routes = [(shard, str(shard.root)) for shard in self.shards]
        #: Compare-and-swap rejections served by this handle.
        self.conflicts = 0
        #: Successful commits through this handle.
        self.commits = 0

    # -- layout ---------------------------------------------------------

    def _pin_manifest(self, n_shards: Optional[int]) -> int:
        """Persist (or verify) the root's shard count.

        The shard of a key depends on ``n_shards``; reopening a root
        with a different count would route keys to the wrong shard, so
        the first opener wins and later mismatches are hard errors.
        """
        path = self.root / MANIFEST
        while True:
            try:
                manifest = json.loads(path.read_text())
                break
            except FileNotFoundError:
                pass
            except (OSError, ValueError) as exc:
                raise ConfigError(
                    f"unreadable shard manifest {path}: {exc}")
            pinned = (n_shards if n_shards is not None
                      else self.DEFAULT_SHARDS)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump({"schema": MANIFEST_SCHEMA,
                               "n_shards": pinned}, fh)
                    fh.write("\n")
                # link, not replace: it refuses to overwrite, so of two
                # openers racing on a fresh root exactly one creates
                # the manifest and the other verifies against it.
                os.link(tmp, path)
                return pinned
            except FileExistsError:
                pass
            finally:
                os.unlink(tmp)
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise ConfigError(
                f"{path} is not a serve-store manifest "
                f"(schema {manifest.get('schema')!r})")
        pinned = int(manifest["n_shards"])
        if n_shards is not None and pinned != n_shards:
            raise ConfigError(
                f"store {self.root} was created with {pinned} shards; "
                f"reopen with n_shards={pinned} (got {n_shards})")
        return pinned

    def shard_of(self, key: dict) -> int:
        """The shard index ``key`` routes to (pure function of the key)."""
        return self.shard_of_digest(entry_digest(key))

    def shard_of_digest(self, digest: str) -> int:
        return int(digest[:8], 16) % self.n_shards

    def _locate(self, digest: str) -> tuple[TuningStore, str]:
        """The shard and entry-file path of a key's digest.  Everything
        below the public methods is addressed by digest, so a request
        canonicalises and hashes its key once."""
        shard, directory = self._routes[self.shard_of_digest(digest)]
        return shard, f"{directory}/{digest}.json"

    def path_for(self, key: dict) -> Path:
        return Path(self._locate(entry_digest(key))[1])

    @property
    def corrupt_entries(self) -> int:
        """Corrupt or alien-schema files seen by this handle's reads."""
        return sum(shard.corrupt_entries for shard in self.shards)

    @contextmanager
    def _entry_lock(self, path: Union[str, Path]):
        """Per-entry advisory write lock (readers stay lock-free).

        Deleting an entry unlinks its lock file, so a writer that
        opened the file just before may be granted the lock on an
        inode no path names any more while the next writer locks a
        fresh file — two holders.  The lock is therefore held only
        once the grant is on the inode the path *still* names;
        otherwise reopen and queue again.
        """
        lock_path = os.path.splitext(path)[0] + ".lock"
        while True:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                if fcntl is None:
                    break
                fcntl.flock(fd, fcntl.LOCK_EX)
                if os.path.samestat(os.fstat(fd), os.stat(lock_path)):
                    break
            except FileNotFoundError:
                pass  # unlinked under us, nothing recreated it yet
            except BaseException:
                os.close(fd)
                raise
            os.close(fd)
        try:
            yield
        finally:
            os.close(fd)  # closing the description drops the flock

    # -- reads ----------------------------------------------------------

    def _entry(self, shard: TuningStore,
               payload: dict) -> Optional[ServedEntry]:
        try:
            return ServedEntry(
                key=payload["key"],
                choice=PlanChoice.from_dict(payload["plan"]),
                version=int(payload.get("version", 1)),
                meta=payload.get("meta") or {})
        except (KeyError, TypeError, ValueError, ReproError):
            shard.corrupt_entries += 1
            return None

    def read(self, key: dict) -> Optional[ServedEntry]:
        """The current versioned entry for ``key`` (None = miss)."""
        return self._read(entry_digest(key))

    def _read(self, digest: str) -> Optional[ServedEntry]:
        shard, path = self._locate(digest)
        payload = shard.load(path)
        if payload is None:
            return None
        return self._entry(shard, payload)

    def get(self, key: dict) -> Optional[PlanChoice]:
        """TuningStore-compatible read (plan only)."""
        entry = self.read(key)
        return entry.choice if entry is not None else None

    # -- writes ---------------------------------------------------------

    def commit(self, key: dict, choice: PlanChoice,
               meta: Optional[dict] = None,
               expect_version: Optional[int] = None) -> CommitResult:
        """Write ``choice`` under ``key`` with version discipline.

        Without ``expect_version`` this is a confident overwrite (the
        version still advances monotonically).  With one, the write is
        a compare-and-swap: it only lands when the current version
        matches (an absent entry is version 0); otherwise nothing is
        written and the current entry is returned with
        ``committed=False``.
        """
        return self._commit(entry_digest(key), key, choice, meta,
                            expect_version)

    def _commit(self, digest: str, key: dict, choice: PlanChoice,
                meta: Optional[dict],
                expect_version: Optional[int]) -> CommitResult:
        shard, path = self._locate(digest)
        with self._entry_lock(path):
            payload = shard.load(path)
            current = (self._entry(shard, payload)
                       if payload is not None else None)
            current_version = current.version if current is not None else 0
            if (expect_version is not None
                    and current_version != expect_version):
                self.conflicts += 1
                if current is None:
                    # The entry vanished (evicted/invalidated) under a
                    # CAS writer: surface version 0 so the caller can
                    # re-commit from scratch.
                    current = ServedEntry(key=key, choice=choice,
                                          version=0, meta={})
                return CommitResult(entry=current, committed=False)
            entry = ServedEntry(key=key, choice=choice,
                                version=current_version + 1,
                                meta=dict(meta or {}))
            shard.write(path, key, choice, entry.meta,
                        version=entry.version)
            self.commits += 1
            return CommitResult(entry=entry, committed=True)

    def put(self, key: dict, choice: PlanChoice,
            meta: Optional[dict] = None) -> Path:
        """TuningStore-compatible confident write."""
        digest = entry_digest(key)
        self._commit(digest, key, choice, meta, None)
        return Path(self._locate(digest)[1])

    def delete(self, key: dict) -> bool:
        """Remove ``key``'s entry (and its lock file); True if it existed."""
        return self._delete_path(self._locate(entry_digest(key))[1])

    def _delete_path(self, path: Union[str, Path]) -> bool:
        with self._entry_lock(path):
            try:
                os.unlink(path)
                existed = True
            except FileNotFoundError:
                existed = False
            # Still holding the lock: whoever is queued on this inode
            # finds the path no longer names it and retries.
            try:
                os.unlink(os.path.splitext(path)[0] + ".lock")
            except FileNotFoundError:
                pass
        return existed

    # -- enumeration ----------------------------------------------------

    def count(self) -> int:
        """Total entries across shards (cheap, no parse)."""
        return sum(shard.count() for shard in self.shards)

    def entries(self) -> list[dict]:
        """Every readable entry payload, shard-major, digest order."""
        return [payload for shard in self.shards
                for payload in shard.entries()]

    def iter_entries(self) -> Iterator[ServedEntry]:
        for shard in self.shards:
            for payload in shard.entries():
                entry = self._entry(shard, payload)
                if entry is not None:
                    yield entry

    def purge_plan_space(self, plan_space_digest: str) -> int:
        """Delete every entry keyed to one ``plan_space`` digest.

        The plan-IR digest of the searched plan space (PR7) is part of
        every autotune store key; when a policy's space changes, its
        old digest identifies exactly the entries that can never be
        looked up again.  Returns the number of entries removed.
        """
        removed = 0
        for shard in self.shards:
            for digest in shard.digests():
                path = shard.root / f"{digest}.json"
                payload = shard.load(path)
                if payload is None:
                    continue
                key = payload.get("key") or {}
                if key.get("plan_space") == plan_space_digest:
                    if self._delete_path(path):
                        removed += 1
        return removed

    def __len__(self) -> int:
        return self.count()
