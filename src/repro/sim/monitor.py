"""Lightweight event tracing for simulations.

A :class:`Trace` collects timestamped, categorized records.  The IB
layer, the MPI runtime, and the profiler all write to a shared trace so
experiments can be dissected after a run (arrival patterns, wire
occupancy, lock contention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Virtual time of the event, seconds.
    category:
        Dotted namespace, e.g. ``"ib.post_send"`` or ``"mpi.pready"``.
    subject:
        The entity the record is about (rank, QP number, ...).
    data:
        Free-form payload.
    """

    time: float
    category: str
    subject: Any = None
    data: dict = field(default_factory=dict)


class Trace:
    """An append-only record log with category filtering.

    Tracing can be disabled globally (``enabled=False``) to keep large
    benchmark runs cheap; ``record`` then becomes a no-op.  An enabled
    trace keeps every record until :meth:`clear`.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list[TraceRecord] = []

    def record(
        self,
        time: float,
        category: str,
        subject: Any = None,
        **data: Any,
    ) -> None:
        """Append a record (no-op when disabled)."""
        if not self.enabled:
            return
        self.records.append(TraceRecord(time, category, subject, data))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def filter(
        self,
        category: Optional[str] = None,
        subject: Any = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Records matching all given criteria.

        ``category`` matches exact or prefix (``"ib."`` prefix matches
        ``"ib.post_send"``); ``subject`` matches by equality.
        """
        out = []
        for rec in self.records:
            if category is not None:
                if not (rec.category == category or rec.category.startswith(category + ".")
                        or (category.endswith(".") and rec.category.startswith(category))):
                    continue
            if subject is not None and rec.subject != subject:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def clear(self) -> None:
        self.records.clear()


class Counters:
    """Named monotonic counters for rare events (faults, retries).

    Unlike :class:`Trace`, counters are always on: incrementing is one
    dict operation and costs no virtual time, so the fault/recovery
    machinery can account retransmits, NAKs, and reconnects without a
    trace being enabled.  Dotted names namespace the producers
    (``ib.retransmits``, ``fault.chunks_lost``, ``mpi.replayed_wrs``).
    """

    def __init__(self):
        self._counts: dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero)."""
        self._counts[name] = self._counts.get(name, 0) + n

    def get(self, name: str) -> int:
        """Current value of ``name`` (zero if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> dict[str, int]:
        """Snapshot of all counters (a copy)."""
        return dict(self._counts)

    def since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Per-counter increments since ``snapshot``; zero deltas omitted.

        Counters are monotonic, so the delta is a plain subtraction;
        names created after the snapshot count from zero.
        """
        out = {}
        for name, value in self._counts.items():
            delta = value - snapshot.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def clear(self) -> None:
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:
        return f"<Counters {self._counts!r}>"
