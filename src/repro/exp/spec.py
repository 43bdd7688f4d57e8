"""Declarative sweep-point specifications.

A :class:`Scenario` is a named, hashable description of one sweep
point: what kind of measurement to take (``overhead``, ``perceived``,
``sweep``, ...) and every parameter that measurement depends on —
module/aggregator descriptor, workload shape, iteration counts, seed.
Two scenarios with the same parameters are the *same point*: they hash
equal, dedup in the runner, and share one cache entry.

Parameters are stored as a canonical JSON string so scenarios are
cheap to hash, order-insensitive, picklable across process boundaries,
and serializable into result artifacts.  Values must therefore be
JSON-safe (numbers, strings, booleans, ``None``, lists, dicts);
Python floats round-trip through JSON bit-exactly.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

#: The one canonical encoder (``json.dumps`` builds one per call).
#: ``_jsonable`` hands it a freshly built tree, so there is no cycle
#: for it to look for.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                           check_circular=False).encode


def canonical(params: Mapping[str, Any]) -> str:
    """Order-insensitive canonical JSON encoding of a parameter map."""
    return _encode(_jsonable(params))


def _jsonable(value: Any) -> Any:
    """Normalize tuples to lists so equal specs encode equally."""
    # Exact-type fast paths: a plan-service key is a flat dict of
    # scalars and every request canonicalises one.  Anything else
    # (subclasses, other mappings, rejects) takes the general chain
    # below, which alone defines the result.
    kind = type(value)
    if (kind is str or kind is int or kind is float or kind is bool
            or value is None):
        return value
    if kind is dict:
        return {str(k): _jsonable(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    raise TypeError(
        f"scenario parameter {value!r} ({type(value).__name__}) is not "
        "JSON-safe; describe objects declaratively (see repro.exp.modules)")


@dataclass(frozen=True)
class Scenario:
    """One sweep point: a measurement kind plus canonical parameters."""

    kind: str
    key: str

    @classmethod
    def make(cls, kind: str, **params: Any) -> "Scenario":
        return cls(kind=kind, key=canonical(params))

    @property
    def params(self) -> dict:
        return json.loads(self.key)

    def as_dict(self) -> dict:
        """Plain-dict form handed to worker processes and cache files."""
        return {"kind": self.kind, "params": self.params}

    def digest(self, fingerprint: str = "") -> str:
        """Content address of this point under a given code fingerprint."""
        h = hashlib.sha256()
        h.update(self.kind.encode())
        h.update(b"\0")
        h.update(self.key.encode())
        h.update(b"\0")
        h.update(fingerprint.encode())
        return h.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scenario({self.kind}, {self.key})"


def grid(kind: str, base: Optional[Mapping[str, Any]] = None,
         **axes: Sequence[Any]) -> list[Scenario]:
    """Cartesian product of parameter axes over a base parameter map.

    ``grid("overhead", {"n_user": 32}, total_bytes=SIZES, module=MODS)``
    yields one scenario per (size, module) combination, in the given
    axis order (last axis varies fastest).
    """
    names = list(axes)
    points = []
    for combo in itertools.product(*(axes[name] for name in names)):
        params = dict(base or {})
        params.update(zip(names, combo))
        points.append(Scenario.make(kind, **params))
    return points


def dedup(points: Iterable[Scenario]) -> list[Scenario]:
    """Unique scenarios, first-seen order preserved."""
    seen: dict[Scenario, None] = {}
    for point in points:
        seen.setdefault(point)
    return list(seen)
