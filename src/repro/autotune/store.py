"""Persistent tuning store: learned plans that survive the process.

A :class:`TuningStore` is a directory of JSON files, one per learned
``(workload, cluster) → plan`` entry, keyed the same way the ``exp``
result cache keys scenarios: the workload descriptor is canonicalized
(:func:`repro.exp.spec.canonical`) and hashed, so any process that can
describe its workload the same way finds the same entry — a cheap,
incremental replacement for the 23-hour brute-force table that grows
one converged run at a time.

The store is deliberately dumb: one process, one directory, no
versions.  The serving layer (:mod:`repro.serve`) shards many of these
directories behind a cache and adds versioned concurrent-writer
safety; each of its shards *is* a :class:`TuningStore` (entry files go
through :meth:`TuningStore.load` / :meth:`TuningStore.write` there
too), which is what keeps service-served plans bit-identical to direct
store reads.
"""

from __future__ import annotations

import hashlib
import json
from math import isfinite
from pathlib import Path
from typing import Optional, Protocol, Union, runtime_checkable

from repro.atomic import atomic_write, read_json
from repro.autotune.policy import PlanChoice
from repro.errors import ReproError
from repro.exp.spec import canonical

SCHEMA = "repro-autotune-store/v1"

#: ``json``'s own encoder for the entry format.  CPython's C encoder has
#: no ``indent``, so this one runs as nested Python generators; it
#: defines the text and takes whatever :func:`_encode_entry` hands it.
_json_indent2 = json.JSONEncoder(indent=2, sort_keys=True).encode
_escape = json.encoder.encode_basestring_ascii


@runtime_checkable
class PlanStore(Protocol):
    """What the autotuner asks of a plan store (structural).

    :class:`TuningStore` is the canonical implementation; the serving
    layer's :class:`repro.serve.ServeClient` is another — anything
    speaking these two methods plugs into
    :func:`~repro.autotune.build_autotuner` /
    :class:`~repro.autotune.AdaptiveAggregator`.
    """

    def get(self, key: dict) -> Optional[PlanChoice]: ...

    def put(self, key: dict, choice: PlanChoice,
            meta: Optional[dict] = None): ...


class WorkloadKey(dict):
    """A tuning key as a value: a ``dict`` no mutator works on, which
    computes its content address once and keeps it.

    It reads as the dict it equals — ``==``, ``json``, ``dict(key)``,
    ``{**key}`` and ``copy()`` (the last three give plain, mutable
    dicts).  The freeze is one level deep, so :func:`entry_digest`
    remembers the address only of a key whose values are all scalars.
    """

    __slots__ = ("_digest",)

    def _immutable(self, *args, **kwargs):
        raise TypeError("a WorkloadKey is immutable; build the changed key "
                        "with workload_key() or from dict(key)")

    __setitem__ = __delitem__ = __ior__ = _immutable
    update = pop = popitem = setdefault = clear = _immutable

    def __reduce__(self):
        # The default reconstructs a dict subclass item by item through
        # ``__setitem__``; this goes through the constructor.
        return WorkloadKey, (dict(self),)


def workload_key(n_user: int, message_size: int,
                 config_tag: str = "", **extra) -> WorkloadKey:
    """The canonical identity of a tuning entry.

    ``config_tag`` distinguishes clusters (use the config name or a
    hash); ``extra`` admits workload dimensions a caller cares about
    (compute phase, noise profile, ...).
    """
    return WorkloadKey({"n_user": int(n_user),
                        "message_size": int(message_size),
                        "config": config_tag, **extra})


def entry_digest(key: dict) -> str:
    """Content address of a tuning key (the entry's file stem).

    A :class:`WorkloadKey` is hashed once; a plain dict is the caller's
    to mutate, so it is canonicalised and hashed on every call.
    """
    frozen = type(key) is WorkloadKey
    if frozen:
        try:
            return key._digest
        except AttributeError:
            pass
    digest = hashlib.sha256(canonical(key).encode()).hexdigest()[:24]
    # A container value stays mutable inside the frozen key.
    if frozen and _ATOMS.keys() >= set(map(type, key.values())):
        key._digest = digest
    return digest


def _float_text(value: float) -> str:
    return float.__repr__(value) if isfinite(value) else _json_indent2(value)


#: Scalar texts by exact type (``json`` spells them the same way).
_ATOMS = {str: _escape, int: int.__repr__, float: _float_text,
          bool: {True: "true", False: "false"}.__getitem__,
          type(None): lambda _: "null"}


def _encode_entry(value, pad: str = "\n") -> str:
    """The one entry-file encoder: byte for byte the text of
    ``json.dumps(value, indent=2, sort_keys=True)``.

    Dicts with ``str`` keys and scalars, by exact type, are written
    here; anything else (lists, other keys, subclasses) is ``json``'s,
    re-indented to its depth — ``pad`` is the line break at the
    enclosing depth, and JSON has no raw newline inside a string.
    """
    kind = type(value)
    if kind is dict or kind is WorkloadKey:
        if not value:
            return "{}"
        inner = pad + "  "
        lines = []
        for k in sorted(value):
            if type(k) is not str:
                break  # json's to stringify, and so the whole dict
            v = value[k]
            atom = _ATOMS.get(type(v))
            lines.append(
                f"{_escape(k)}: {atom(v) if atom else _encode_entry(v, inner)}")
        else:
            return "{" + inner + ("," + inner).join(lines) + pad + "}"
    else:
        atom = _ATOMS.get(kind)
        if atom is not None:
            return atom(value)
    return _json_indent2(value).replace("\n", pad)


class TuningStore:
    """Content-addressed on-disk store of learned plans."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Corrupt or alien-schema files seen by reads of this handle
        #: (cumulative).  Surfaced by ``repro-bench autotune`` so store
        #: rot is visible instead of silently reading as "never tuned".
        self.corrupt_entries = 0

    def _path(self, key: dict) -> Path:
        return self.root / f"{entry_digest(key)}.json"

    def load(self, path: Union[str, Path]) -> Optional[dict]:
        """Parse one entry file; None (and count) when corrupt.

        A *missing* file is a plain miss, not corruption — only a file
        that exists but cannot be read as a schema-valid entry counts.
        """
        try:
            return read_json(path, SCHEMA)
        except (OSError, ValueError):
            self.corrupt_entries += 1
            return None

    def get(self, key: dict) -> Optional[PlanChoice]:
        """The stored plan for ``key``, or None (missing/corrupt)."""
        payload = self.load(self._path(key))
        if payload is None:
            return None
        try:
            return PlanChoice.from_dict(payload["plan"])
        except (KeyError, TypeError, ValueError, ReproError):
            # ReproError covers schema-valid files holding an invalid
            # plan (e.g. a non-power-of-two transport count).
            self.corrupt_entries += 1
            return None

    def put(self, key: dict, choice: PlanChoice,
            meta: Optional[dict] = None) -> Path:
        """Persist ``choice`` under ``key`` (atomic replace)."""
        path = self._path(key)
        self.write(path, key, choice, meta or {})
        return path

    def write(self, path: Union[str, Path], key: dict, choice: PlanChoice,
              meta: dict, **extra) -> None:
        """Land one entry file at ``path``: readers see the old file or
        the new one, never a torn write.  ``extra`` admits the fields a
        layer above adds to the schema (the serving layer's version)."""
        payload = {"schema": SCHEMA, "key": key, "plan": choice.as_dict(),
                   "meta": meta, **extra}
        # Owner-only: the mode the serve manifest is created with too.
        atomic_write(path, (_encode_entry(payload) + "\n").encode(), 0o600)

    def digests(self) -> list[str]:
        """Digests on disk (cheap: sorted file stems, no parse)."""
        return sorted(p.stem for p in self.root.glob("*.json"))

    def entries(self) -> list[dict]:
        """Every readable entry's full payload (sorted by digest).

        A full read: every file is parsed and schema-checked (corrupt
        ones are counted and skipped).  Use :meth:`count` when only the
        entry count is needed.
        """
        out = []
        for digest in self.digests():
            payload = self.load(self.root / f"{digest}.json")
            if payload is not None:
                out.append(payload)
        return out

    def count(self) -> int:
        """Cheap entry count: files on disk, no JSON parse.

        Counts every ``*.json`` file, including any corrupt ones — the
        fast path for progress lines and CLI summaries.  ``entries()``
        remains the full (validating) read.
        """
        return sum(1 for _ in self.root.glob("*.json"))

    def lookup(self, n_user: int, message_size: int,
               config_tag: str = "", **extra) -> Optional[PlanChoice]:
        """Convenience: :meth:`get` on a :func:`workload_key`."""
        return self.get(workload_key(n_user, message_size,
                                     config_tag, **extra))

    def __len__(self) -> int:
        return self.count()
