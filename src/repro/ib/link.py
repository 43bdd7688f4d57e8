"""The wire model: chunked, shared, rate-limited serialization.

Large transmissions are split into ``wire_chunk``-byte chunks.  Each
chunk claims the sender NIC's egress port (a capacity-1 resource) for
its serialization time, and per-QP injection is rate-limited to
``qp_rate`` by spacing chunk starts.  The gaps a single slow QP leaves
on the wire are exactly where chunks of *other* QPs slot in — which is
how multiple QPs recover full line rate for large messages (paper
Fig. 7) without simulating individual packets.

Ingress at the receiver is serialized analytically with a busy-until
clock shifted one propagation latency after egress, so concurrent
senders targeting one node contend realistically (needed for the
Sweep3D runs of Fig. 14).
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.config import NICConfig


def iter_chunks(nbytes: int, chunk_size: int) -> Iterator[int]:
    """Chunk byte counts for a transmission of ``nbytes``.

    Zero-byte messages (pure-immediate writes) yield one zero chunk so
    header-only packets still traverse the wire.
    """
    if nbytes == 0:
        yield 0
        return
    full, rem = divmod(nbytes, chunk_size)
    for _ in range(full):
        yield chunk_size
    if rem:
        yield rem


def chunk_occupancy(nbytes: int, cfg: NICConfig) -> float:
    """Wire occupancy of one chunk: serialization plus packet costs."""
    npackets = max(1, math.ceil(nbytes / cfg.mtu))
    return nbytes / cfg.line_rate + npackets * cfg.t_pkt


def injection_spacing(nbytes: int, cfg: NICConfig) -> float:
    """Minimum spacing between chunk starts on one QP (rate limiting)."""
    npackets = max(1, math.ceil(nbytes / cfg.mtu))
    return nbytes / cfg.qp_rate + npackets * cfg.t_pkt


class WireTimeTable:
    """Slotted wire timings for one :class:`NICConfig`.

    A transmission of any size decomposes into at most two distinct
    chunk sizes (``wire_chunk`` plus one remainder), so per-chunk
    serialization arithmetic collapses onto a handful of slots computed
    once per config.  Lookups return the *same float* the formulas in
    this module produce — the table is a cache, never an approximation,
    which is what keeps simulated timings bit-identical.

    Obtain instances through :func:`wire_table`; configs are frozen
    dataclasses, so one table per distinct config is shared by every
    NIC built from it.
    """

    __slots__ = ("cfg", "_slots", "_trains")

    def __init__(self, cfg: NICConfig):
        self.cfg = cfg
        #: chunk bytes -> (chunk bytes, occupancy, spacing).
        self._slots: dict[int, tuple[int, float, float]] = {}
        #: transmission bytes -> its train of slots.
        self._trains: dict[int, tuple[tuple[int, float, float], ...]] = {}

    def train(self, nbytes: int) -> tuple[tuple[int, float, float], ...]:
        """The chunks of an ``nbytes`` transmission (:func:`iter_chunks`),
        each as ``(bytes, occupancy, spacing)``: :func:`chunk_occupancy`
        and :func:`injection_spacing` of that chunk.  One lookup per WR
        gives the chunk loop everything it needs."""
        train = self._trains.get(nbytes)
        if train is None:
            slots = self._slots
            cfg = self.cfg
            train = []
            for chunk in iter_chunks(nbytes, cfg.wire_chunk):
                slot = slots.get(chunk)
                if slot is None:
                    slot = slots[chunk] = (chunk, chunk_occupancy(chunk, cfg),
                                           injection_spacing(chunk, cfg))
                train.append(slot)
            train = self._trains[nbytes] = tuple(train)
        return train


_WIRE_TABLES: dict[NICConfig, WireTimeTable] = {}


def wire_table(cfg: NICConfig) -> WireTimeTable:
    """The shared :class:`WireTimeTable` for ``cfg`` (one per config)."""
    table = _WIRE_TABLES.get(cfg)
    if table is None:
        table = _WIRE_TABLES[cfg] = WireTimeTable(cfg)
    return table


class LinkQueue:
    """One shared fabric link: a capacity-1 serialization queue.

    Backs the routed-topology link graph
    (:class:`repro.ib.topology.RoutedDragonflyPlus` via
    :class:`repro.ib.fabric.Fabric`): every chunk whose route crosses
    this link claims the :class:`~repro.sim.resources.Resource` for its
    serialization time, so concurrent flows sharing the link genuinely
    queue behind each other.  The queue keeps occupancy statistics for
    the fleet profiler — accumulated busy time, bytes carried, and the
    deepest wait queue observed.
    """

    __slots__ = ("key", "resource", "busy_time", "bytes_carried",
                 "chunks_carried", "max_queue")

    def __init__(self, env, key):
        from repro.sim.resources import Resource

        self.key = key
        self.resource = Resource(env, capacity=1)
        self.busy_time = 0.0
        self.bytes_carried = 0
        self.chunks_carried = 0
        self.max_queue = 0

    def note(self, occupancy: float, nbytes: int) -> None:
        """Account one chunk's traversal (called while holding a slot)."""
        self.busy_time += occupancy
        self.bytes_carried += nbytes
        self.chunks_carried += 1
        depth = self.resource.queue_length
        if depth > self.max_queue:
            self.max_queue = depth

    def utilization(self, makespan: float) -> float:
        """Fraction of ``makespan`` this link spent serializing."""
        if makespan <= 0:
            return 0.0
        return min(1.0, self.busy_time / makespan)

    def stats(self, makespan: float) -> dict:
        """JSON-safe occupancy summary for profiles and reports."""
        return {
            "busy_time": self.busy_time,
            "bytes": self.bytes_carried,
            "chunks": self.chunks_carried,
            "max_queue": self.max_queue,
            "utilization": self.utilization(makespan),
        }

    def __repr__(self) -> str:
        return f"<LinkQueue {self.key} bytes={self.bytes_carried}>"


class IngressPort:
    """Analytic receive-side serializer: a busy-until clock per NIC."""

    __slots__ = ("busy_until", "bytes_received")

    def __init__(self):
        self.busy_until = 0.0
        self.bytes_received = 0

    def admit(self, egress_start: float, occupancy: float, latency: float,
              nbytes: int) -> float:
        """Serialize one chunk arriving after ``latency``; returns its
        completion time at the receiver."""
        start = max(egress_start + latency, self.busy_until)
        self.busy_until = start + occupancy
        self.bytes_received += nbytes
        return self.busy_until
