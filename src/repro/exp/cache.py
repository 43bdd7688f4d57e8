"""Content-addressed on-disk cache of sweep-point results.

One JSON file per sweep point, named by the point's digest under the
current code fingerprint (:func:`repro.exp.fingerprint.code_fingerprint`).
Because the digest covers every scenario parameter *and* the source
tree, a hit is guaranteed to be the bit-identical result a fresh run
would produce; any code or spec change misses and re-runs.

Writes are atomic (:mod:`repro.atomic`): a killed sweep never poisons
the cache, nor do two commands sharing it — re-running a sweep resumes,
re-executing only the points that have no completed entry.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Optional

from repro.atomic import atomic_write
from repro.exp.spec import Scenario

CACHE_SCHEMA = "repro-exp-cache/v1"


class ResultCache:
    """Directory of per-point result files, keyed by content digest."""

    def __init__(self, directory: os.PathLike | str):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, digest: str) -> pathlib.Path:
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> Optional[dict]:
        """The cached metrics for ``digest``, or None on a miss.

        Unreadable or truncated entries (e.g. from a kill that raced
        the atomic rename away) count as misses.
        """
        path = self.path(digest)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        if doc.get("schema") != CACHE_SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return doc["metrics"]

    def put(self, digest: str, scenario: Scenario, fingerprint: str,
            metrics: dict) -> None:
        """Persist one completed point atomically."""
        doc = {
            "schema": CACHE_SCHEMA,
            "scenario": scenario.as_dict(),
            "fingerprint": fingerprint,
            "metrics": metrics,
        }
        atomic_write(self.path(digest), json.dumps(doc).encode())

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
