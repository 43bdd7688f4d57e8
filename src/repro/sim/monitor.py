"""The record type of a simulation trace.

With ``ClusterConfig(trace_enabled=True)`` the fabric keeps
``Fabric.trace``, a plain ``list[TraceRecord]`` the IB layer appends to
(WQE starts, wire chunks, deliveries), so a run can be dissected
afterwards (arrival patterns, wire occupancy).  Tracing off, it is
``None``: the one switch every writer tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    Attributes
    ----------
    time:
        Virtual time of the event, seconds.
    category:
        Dotted namespace, e.g. ``"ib.chunk"`` or ``"ib.deliver"``.
    subject:
        The node the record is about.
    data:
        Free-form payload.
    """

    time: float
    category: str
    subject: int
    data: dict
