"""Fault schedules: scripted events plus seeded probabilistic faults.

A :class:`FaultSchedule` is pure data — a declarative description of
what goes wrong, where, and when, in virtual time.  A
:class:`FaultInjector` binds a schedule to a fabric run: it owns the
named RNG substreams (one per directed link, derived from the
simulation's root seed through :class:`repro.sim.rng.RngStreams`) and
the fault counters, and answers the NIC engine's per-chunk and
per-message queries.

Determinism: scripted windows are pure functions of virtual time, and
probabilistic draws come from per-link substreams consumed in
transmission order — which the DES kernel makes deterministic — so the
same root seed and schedule produce a bit-identical fault pattern on
every run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import ConfigError
from repro.ib.constants import CHUNK_CORRUPT, CHUNK_LOST, CHUNK_OK
from repro.sim.rng import RngStreams


def _check_window(start: float, duration: float) -> None:
    if start < 0:
        raise ConfigError(f"fault window starts in the past: {start}")
    if duration <= 0:
        raise ConfigError(f"fault window needs positive duration: {duration}")


@dataclass(frozen=True)
class LinkFlap:
    """The wire between two nodes is down for ``[start, start+duration)``.

    Chunks transmitted into a downed wire are lost (the sender NIC's
    ACK timeout and retransmission machinery recovers them, or gives up
    with ``RETRY_EXC_ERR``).  Both directions are affected.
    """

    a: int
    b: int
    start: float
    duration: float

    def __post_init__(self):
        _check_window(self.start, self.duration)

    def covers(self, src: int, dst: int, t: float) -> bool:
        return ({src, dst} == {self.a, self.b}
                and self.start <= t < self.start + self.duration)


@dataclass(frozen=True)
class LatencySpike:
    """Extra one-way propagation latency on a directed link for a window."""

    src: int
    dst: int
    start: float
    duration: float
    extra: float

    def __post_init__(self):
        _check_window(self.start, self.duration)
        if self.extra < 0:
            raise ConfigError(f"negative latency spike: {self.extra}")

    def covers(self, src: int, dst: int, t: float) -> bool:
        return (src == self.src and dst == self.dst
                and self.start <= t < self.start + self.duration)


@dataclass(frozen=True)
class NICStall:
    """One node's NIC engine processes nothing during the window.

    Models firmware hiccups / PCIe backpressure: WQE transmission on
    every QP of the node resumes at ``start + duration``.
    """

    node: int
    start: float
    duration: float

    def __post_init__(self):
        _check_window(self.start, self.duration)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def covers(self, node: int, t: float) -> bool:
        return node == self.node and self.start <= t < self.end


@dataclass(frozen=True)
class RNRWindow:
    """Messages needing a receive WR at ``node`` are RNR-NAKed in the window.

    ``qp_num=None`` covers every QP on the node.  The requester backs
    off per its ``rnr_retry`` budget, exactly as a slow responder that
    has not re-posted receives would make it.
    """

    node: int
    start: float
    duration: float
    qp_num: Optional[int] = None

    def __post_init__(self):
        _check_window(self.start, self.duration)

    def covers(self, node: int, qp_num: int, t: float) -> bool:
        return (node == self.node
                and (self.qp_num is None or qp_num == self.qp_num)
                and self.start <= t < self.start + self.duration)


@dataclass(frozen=True)
class ChunkFaults:
    """Probabilistic per-chunk faults on a directed link (or everywhere).

    ``loss`` is the probability a wire chunk vanishes; ``corruption``
    the probability it arrives damaged (an ICRC failure — the responder
    drops it, so the requester-side effect is identical to loss, but it
    is counted separately).  ``src``/``dst`` of ``None`` match any node.
    """

    loss: float = 0.0
    corruption: float = 0.0
    src: Optional[int] = None
    dst: Optional[int] = None

    def __post_init__(self):
        if not (0.0 <= self.loss <= 1.0):
            raise ConfigError(f"loss probability outside [0, 1]: {self.loss}")
        if not (0.0 <= self.corruption <= 1.0):
            raise ConfigError(
                f"corruption probability outside [0, 1]: {self.corruption}")

    def matches(self, src: int, dst: int) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))


@dataclass
class FaultSchedule:
    """A deterministic plan of everything that goes wrong in one run.

    Build one declaratively::

        schedule = (FaultSchedule()
                    .chunk_loss(1e-4)
                    .link_flap(0, 1, start=1.0, duration=2e-3)
                    .rnr_window(1, start=0.5, duration=1e-3))

    and install it with :meth:`repro.ib.fabric.Fabric.install_faults`
    (or pass it to the benchmark harnesses).  ``allow_reconnect``
    controls whether the MPI modules may walk failed channels back to
    RTS; with it off, a retry-exhausted QP surfaces
    :class:`~repro.errors.RetryExhaustedError` to the caller instead.
    """

    flaps: list[LinkFlap] = field(default_factory=list)
    spikes: list[LatencySpike] = field(default_factory=list)
    stalls: list[NICStall] = field(default_factory=list)
    rnr_windows: list[RNRWindow] = field(default_factory=list)
    chunk_faults: list[ChunkFaults] = field(default_factory=list)
    allow_reconnect: bool = True

    # -- builder API ------------------------------------------------------

    def link_flap(self, a: int, b: int, start: float,
                  duration: float) -> "FaultSchedule":
        self.flaps.append(LinkFlap(a, b, start, duration))
        return self

    def latency_spike(self, src: int, dst: int, start: float,
                      duration: float, extra: float) -> "FaultSchedule":
        self.spikes.append(LatencySpike(src, dst, start, duration, extra))
        return self

    def rnr_window(self, node: int, start: float, duration: float,
                   qp_num: Optional[int] = None) -> "FaultSchedule":
        self.rnr_windows.append(RNRWindow(node, start, duration, qp_num))
        return self

    def chunk_loss(self, probability: float, src: Optional[int] = None,
                   dst: Optional[int] = None) -> "FaultSchedule":
        self.chunk_faults.append(
            ChunkFaults(loss=probability, src=src, dst=dst))
        return self

    @property
    def empty(self) -> bool:
        return not (self.flaps or self.spikes or self.stalls
                    or self.rnr_windows or self.chunk_faults)


class FaultInjector:
    """A schedule bound to one run: RNG streams plus fault counters.

    The NIC engine queries this object from its fault-aware transmit
    paths only — when no injector is installed those paths are never
    entered, so the off path costs nothing.
    """

    def __init__(self, schedule: FaultSchedule, rngs: RngStreams,
                 counters: Counter[str]):
        self.schedule = schedule
        self.rngs = rngs
        self.counters = counters
        self._link_streams: dict[tuple[int, int], np.random.Generator] = {}

    # -- RNG plumbing ------------------------------------------------------

    def _stream(self, src: int, dst: int) -> np.random.Generator:
        key = (src, dst)
        gen = self._link_streams.get(key)
        if gen is None:
            gen = self.rngs.stream(f"faults.link.{src}->{dst}")
            self._link_streams[key] = gen
        return gen

    # -- queries (called from the NIC engine) ------------------------------

    def link_down(self, src: int, dst: int, t: float) -> bool:
        """Whether the wire between ``src`` and ``dst`` is flapped at ``t``."""
        return any(f.covers(src, dst, t) for f in self.schedule.flaps)

    def latency_extra(self, src: int, dst: int, t: float) -> float:
        """Additional one-way latency on ``src -> dst`` at time ``t``."""
        return sum(s.extra for s in self.schedule.spikes
                   if s.covers(src, dst, t))

    def stall_until(self, node: int, t: float) -> float:
        """End of the NIC-stall window covering ``node`` at ``t`` (or ``t``)."""
        until = t
        moved = True
        while moved:
            moved = False
            for s in self.schedule.stalls:
                if s.covers(node, until):
                    until = s.end
                    moved = True
        return until

    def rnr_forced(self, node: int, qp_num: int, t: float) -> bool:
        """Whether an RNR window forces NAKs for ``qp_num`` at ``node``."""
        return any(w.covers(node, qp_num, t)
                   for w in self.schedule.rnr_windows)

    def chunk_outcome(self, src: int, dst: int, t: float) -> str:
        """Fate of one wire chunk leaving ``src`` for ``dst`` at time ``t``.

        A flapped link loses every chunk outright (no RNG draw, so flap
        windows do not shift the loss stream).  Otherwise one uniform
        draw per configured fault entry decides loss, then corruption.
        """
        if self.link_down(src, dst, t):
            self.counters["fault.chunks_lost"] += 1
            return CHUNK_LOST
        for cf in self.schedule.chunk_faults:
            if not cf.matches(src, dst):
                continue
            if cf.loss > 0.0:
                if self._stream(src, dst).random() < cf.loss:
                    self.counters["fault.chunks_lost"] += 1
                    return CHUNK_LOST
            if cf.corruption > 0.0:
                if self._stream(src, dst).random() < cf.corruption:
                    self.counters["fault.chunks_corrupted"] += 1
                    return CHUNK_CORRUPT
        return CHUNK_OK

    def __repr__(self) -> str:
        return (f"<FaultInjector flaps={len(self.schedule.flaps)} "
                f"spikes={len(self.schedule.spikes)} "
                f"stalls={len(self.schedule.stalls)} "
                f"rnr={len(self.schedule.rnr_windows)} "
                f"chunk_faults={len(self.schedule.chunk_faults)}>")
