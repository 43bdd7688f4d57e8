"""The client side: a ``TuningStore`` duck-type that can lose its server.

:class:`ServeClient` speaks the two-method store protocol the
autotuner already uses (``get(key) → PlanChoice | None``,
``put(key, choice, meta)``), so it plugs into
:func:`~repro.autotune.build_autotuner` /
:class:`~repro.autotune.AdaptiveAggregator` anywhere a
:class:`~repro.autotune.TuningStore` is accepted — plus the richer
versioned calls (``entry``/``commit`` with ``expect_version``) for
callers that want CAS semantics.

Failure discipline (PR1/PR6, applied to the control plane): every call
goes through a bounded retry with multiplicative backoff; exhausted
retries feed a :class:`~repro.engine.watchdog.CircuitBreaker`.  While
the breaker is OPEN the client doesn't even try — a ``get`` returns
None immediately (the autotuner then explores locally, exactly as if
the plan had never been tuned) and a ``put`` is dropped and counted.
After :data:`COOLDOWN_CALLS` skipped calls the breaker enters HALF_OPEN
and the next call probes the service.  A tuning service outage
degrades throughput (plans are re-explored), never correctness.

The transport is whatever speaks the service's ``get``/``commit``: an
in-process :class:`~repro.serve.service.TuningService` itself, or a
:class:`FlakyTransport` around one, which injects seeded failures for
tests and the ``ext_serve`` experiment.  Backoff sleeping is injectable
too and defaults to *no* sleeping, keeping every test and benchmark
deterministic and fast.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.autotune.policy import PlanChoice
from repro.engine.watchdog import HALF_OPEN, OPEN, CircuitBreaker
from repro.errors import TransportError
from repro.serve.shard import CommitResult, ServedEntry

#: The first retry's back-off (seconds) and its growth per retry; the
#: exhausted calls in a row that open the breaker, and the calls an open
#: breaker skips before it lets one probe the service.
BACKOFF_BASE, BACKOFF_FACTOR = 0.01, 2.0
BREAKER_THRESHOLD, COOLDOWN_CALLS = 3, 8


class ServeUnavailable(TransportError):
    """The tuning service could not be reached (transport-level)."""


class FlakyTransport:
    """Wrap a transport (a :class:`~repro.serve.service.TuningService`)
    with seeded, Bernoulli failure injection.

    Each call independently fails with ``p_fail`` (raising
    :class:`ServeUnavailable` *before* reaching the inner transport, so
    a failed commit never half-lands).  ``outage_after`` optionally
    hard-fails every call from the Nth onward — a total outage for
    breaker tests.
    """

    def __init__(self, inner, p_fail: float = 0.0, seed: int = 0,
                 outage_after: Optional[int] = None):
        self.inner = inner
        self.p_fail = p_fail
        self.outage_after = outage_after
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.injected_failures = 0

    def _maybe_fail(self, op: str) -> None:
        self.calls += 1
        outage = (self.outage_after is not None
                  and self.calls > self.outage_after)
        if outage or (self.p_fail > 0
                      and self._rng.random() < self.p_fail):
            self.injected_failures += 1
            raise ServeUnavailable(f"injected {op} failure "
                                   f"(call {self.calls})")

    def get(self, key: dict) -> Optional[ServedEntry]:
        self._maybe_fail("get")
        return self.inner.get(key)

    def commit(self, key: dict, choice: PlanChoice,
               meta: Optional[dict] = None,
               expect_version: Optional[int] = None) -> CommitResult:
        self._maybe_fail("commit")
        return self.inner.commit(key, choice, meta=meta,
                                 expect_version=expect_version)


class ServeClient:
    """Retry/backoff + circuit breaker over a serve transport."""

    def __init__(self, transport, retries: int = 2,
                 sleep: Optional[Callable[[float], None]] = None):
        self.transport = transport
        self.retries = retries
        #: None = don't sleep between attempts (deterministic tests).
        self.sleep = sleep
        self.breaker = CircuitBreaker(threshold=BREAKER_THRESHOLD)
        self._skipped_since_trip = 0
        #: version the service last reported per digest-able key id —
        #: kept by rich callers; the duck-typed put path never CASes.
        self.fallbacks = 0
        self.dropped_puts = 0
        self.transport_errors = 0

    # -- failure discipline ---------------------------------------------

    def _breaker_allows(self) -> bool:
        """False while the breaker holds the line (count the skip)."""
        if self.breaker.state is not OPEN:
            return True
        self._skipped_since_trip += 1
        if self._skipped_since_trip >= COOLDOWN_CALLS:
            self.breaker.begin_probation()
            self._skipped_since_trip = 0
            return True
        return False

    def _call(self, op: Callable):
        """One operation through retry/backoff; raises when exhausted."""
        delay = BACKOFF_BASE
        last_exc: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                result = op()
            except ServeUnavailable as exc:
                self.transport_errors += 1
                last_exc = exc
                if attempt < self.retries and self.sleep is not None:
                    self.sleep(delay)
                delay *= BACKOFF_FACTOR
                continue
            self.breaker.record_success()
            return result
        if self.breaker.state is HALF_OPEN:
            # A failed probe re-opens immediately: the service is
            # known-sick, no grace period.
            self.breaker.state = OPEN
            self.breaker.failures = 0
            self.breaker.trips += 1
        else:
            self.breaker.record_failure()
        raise last_exc  # type: ignore[misc]

    # -- rich (versioned) API -------------------------------------------

    def entry(self, key: dict) -> Optional[ServedEntry]:
        """The versioned entry, or None on miss *or* unreachable service."""
        if not self._breaker_allows():
            self.fallbacks += 1
            return None
        try:
            return self._call(lambda: self.transport.get(key))
        except ServeUnavailable:
            self.fallbacks += 1
            return None

    def commit(self, key: dict, choice: PlanChoice,
               meta: Optional[dict] = None,
               expect_version: Optional[int] = None
               ) -> Optional[CommitResult]:
        """Versioned commit; None when the service is unreachable."""
        if not self._breaker_allows():
            self.dropped_puts += 1
            return None
        try:
            return self._call(lambda: self.transport.commit(
                key, choice, meta=meta, expect_version=expect_version))
        except ServeUnavailable:
            self.dropped_puts += 1
            return None

    # -- TuningStore duck-type ------------------------------------------

    def get(self, key: dict) -> Optional[PlanChoice]:
        """Store-protocol read: the served plan, or None.

        None covers both "never tuned" and "service unreachable" — the
        autotune controller treats either as "explore locally", which
        is exactly the graceful-degradation contract.
        """
        entry = self.entry(key)
        return entry.choice if entry is not None else None

    def put(self, key: dict, choice: PlanChoice,
            meta: Optional[dict] = None) -> Optional[CommitResult]:
        """Store-protocol confident write (dropped+counted on outage)."""
        return self.commit(key, choice, meta=meta)

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        return {
            "breaker_state": self.breaker.state,
            "breaker_trips": self.breaker.trips,
            "transport_errors": self.transport_errors,
            "fallbacks": self.fallbacks,
            "dropped_puts": self.dropped_puts,
        }
