"""Post-run analysis of simulation traces.

Enable tracing (``ClusterConfig(trace_enabled=True)``) and the IB layer
records WQE starts, wire chunks, and deliveries; these helpers turn the
records into the quantities the paper reasons about — wire utilization
("we are limited by the actual hardware bandwidth", Section V-C2),
per-message wire latency, and egress timelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.monitor import Trace


@dataclass(frozen=True)
class WireStats:
    """Aggregate egress statistics for one node."""

    node_id: int
    busy_time: float
    window: float
    bytes_on_wire: int
    n_chunks: int

    @property
    def utilization(self) -> float:
        """Fraction of the window the egress port was transmitting."""
        if self.window <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.window)


def wire_stats(trace: Trace, node_id: int,
               t_start: float = 0.0,
               t_end: Optional[float] = None) -> WireStats:
    """Egress statistics for ``node_id`` over [t_start, t_end]."""
    chunks = [rec for rec in trace.filter(category="ib.chunk",
                                          subject=node_id)
              if rec.time >= t_start
              and (t_end is None or rec.time <= t_end)]
    if t_end is None:
        t_end = max((rec.time + rec.data["occupancy"] for rec in chunks),
                    default=t_start)
    busy = sum(rec.data["occupancy"] for rec in chunks)
    nbytes = sum(rec.data["nbytes"] for rec in chunks)
    return WireStats(
        node_id=node_id,
        busy_time=busy,
        window=max(0.0, t_end - t_start),
        bytes_on_wire=nbytes,
        n_chunks=len(chunks),
    )


def chunk_timeline(trace: Trace, node_id: int) -> list[tuple[float, float, int]]:
    """(start, end, bytes) of every egress chunk, in time order."""
    out = [
        (rec.time, rec.time + rec.data["occupancy"], rec.data["nbytes"])
        for rec in trace.filter(category="ib.chunk", subject=node_id)
    ]
    out.sort()
    return out


def idle_gaps(trace: Trace, node_id: int,
              min_gap: float = 0.0) -> list[tuple[float, float]]:
    """Egress idle intervals between chunks (length > min_gap).

    The early-bird window the timer aggregator exploits shows up here
    as a long idle gap between the early flush and the laggard's chunk.
    """
    timeline = chunk_timeline(trace, node_id)
    gaps = []
    for (s1, e1, _), (s2, _, _) in zip(timeline, timeline[1:]):
        if s2 - e1 > min_gap:
            gaps.append((e1, s2))
    return gaps


def message_wire_latencies(trace: Trace) -> dict[int, float]:
    """{wr_id: delivery time - WQE start} for every traced message."""
    starts = {}
    for rec in trace.filter(category="ib.wqe_start"):
        starts[rec.data["wr_id"]] = rec.time
    latencies = {}
    for rec in trace.filter(category="ib.deliver"):
        wr_id = rec.data["wr_id"]
        if wr_id in starts:
            latencies[wr_id] = rec.time - starts[wr_id]
    return latencies


def latency_percentiles(trace: Trace,
                        percentiles=(50, 90, 99)) -> dict[int, float]:
    """Wire-latency percentiles across all traced messages."""
    values = list(message_wire_latencies(trace).values())
    if not values:
        return {p: 0.0 for p in percentiles}
    arr = np.asarray(values)
    return {p: float(np.percentile(arr, p)) for p in percentiles}
