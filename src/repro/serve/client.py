"""The client side: the ``PlanStore`` protocol over a tuning service.

:class:`ServeClient` speaks the two-method store protocol the
autotuner already uses (``get(key) → PlanChoice | None``,
``put(key, choice, meta)``), so it plugs into
:func:`~repro.autotune.build_autotuner` /
:class:`~repro.autotune.AdaptiveAggregator` anywhere a
:class:`~repro.autotune.TuningStore` is accepted.  Reads go cache-first
through the :class:`~repro.serve.service.TuningService`; a ``put`` is a
confident (non-CAS) commit.  Errors from the service (``OSError``,
``ConfigError``) propagate to the caller.
"""

from __future__ import annotations

from typing import Optional

from repro.autotune.policy import PlanChoice
from repro.serve.shard import CommitResult


class ServeClient:
    """A :class:`~repro.serve.service.TuningService` as a plan store."""

    def __init__(self, service):
        self.service = service

    def get(self, key: dict) -> Optional[PlanChoice]:
        """The served plan, or None when the key was never tuned."""
        entry = self.service.get(key)
        return entry.choice if entry is not None else None

    def put(self, key: dict, choice: PlanChoice,
            meta: Optional[dict] = None) -> CommitResult:
        """Commit ``choice`` for ``key`` whatever version is current."""
        return self.service.commit(key, choice, meta=meta)
