"""Property-based fault-schedule generators for chaos campaigns.

Each generator is a pure function of a named RNG substream: the same
seed always yields the same :class:`~repro.faults.FaultSchedule`, so
every campaign run is replayable from its ``(kind, seed)`` pair alone.
The four kinds stress different recovery machinery:

* ``flap_storm`` — several independent link flaps scattered across the
  fabric (retry exhaustion + reconnect walks on unrelated edges);
* ``rail_failure`` — every link of one node goes down at once (the
  correlated failure that hits a whole rank's QPs simultaneously);
* ``rnr_burst`` — clustered receiver-not-ready windows (RNR NAK
  backoff, and RNR retry exhaustion where windows outlast the budget);
* ``latency_train`` — a train of latency spikes on one directed link
  (ACK-timeout retransmits without any actual loss).

All windows are finite and land inside the ``horizon``, so a schedule
can always be outlived by a workload that keeps making progress.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from repro.faults.schedule import (
    ChunkFaults,
    FaultSchedule,
    LatencySpike,
    LinkFlap,
    NICStall,
    RNRWindow,
)

#: Fault-schedule kinds a campaign can draw from.
KINDS = ("flap_storm", "rail_failure", "rnr_burst", "latency_train")


def _window(rng: np.random.Generator, horizon: float,
            lo: float = 0.05, hi: float = 0.6,
            dlo: float = 0.02, dhi: float = 0.10) -> tuple[float, float]:
    """A (start, duration) pair, as fractions of the horizon."""
    start = float(rng.uniform(lo, hi) * horizon)
    duration = float(rng.uniform(dlo, dhi) * horizon)
    return start, duration


def _pair(rng: np.random.Generator, n_nodes: int) -> tuple[int, int]:
    a, b = rng.choice(n_nodes, size=2, replace=False)
    return int(a), int(b)


def _flap_storm(rng, n_nodes, horizon) -> FaultSchedule:
    schedule = FaultSchedule()
    for _ in range(int(rng.integers(2, 6))):
        a, b = _pair(rng, n_nodes)
        start, duration = _window(rng, horizon)
        schedule.link_flap(a, b, start, duration)
    return schedule


def _rail_failure(rng, n_nodes, horizon) -> FaultSchedule:
    schedule = FaultSchedule()
    node = int(rng.integers(n_nodes))
    start, duration = _window(rng, horizon, dlo=0.04, dhi=0.12)
    for other in range(n_nodes):
        if other != node:
            schedule.link_flap(node, other, start, duration)
    return schedule


def _rnr_burst(rng, n_nodes, horizon) -> FaultSchedule:
    schedule = FaultSchedule()
    for _ in range(int(rng.integers(2, 5))):
        node = int(rng.integers(n_nodes))
        start, duration = _window(rng, horizon, dlo=0.01, dhi=0.06)
        schedule.rnr_window(node, start, duration)
    return schedule


def _latency_train(rng, n_nodes, horizon) -> FaultSchedule:
    schedule = FaultSchedule()
    src, dst = _pair(rng, n_nodes)
    t = float(rng.uniform(0.05, 0.2) * horizon)
    for _ in range(int(rng.integers(3, 7))):
        duration = float(rng.uniform(0.02, 0.06) * horizon)
        extra = float(rng.uniform(5e-6, 50e-6))
        schedule.latency_spike(src, dst, t, duration, extra)
        t += duration + float(rng.uniform(0.01, 0.05) * horizon)
    return schedule


_GENERATORS = {
    "flap_storm": _flap_storm,
    "rail_failure": _rail_failure,
    "rnr_burst": _rnr_burst,
    "latency_train": _latency_train,
}


def generate_schedule(kind: str, rng: np.random.Generator, n_nodes: int,
                      horizon: float = 20e-3) -> FaultSchedule:
    """A randomized, replayable schedule of the given ``kind``."""
    if kind not in _GENERATORS:
        raise ValueError(
            f"unknown chaos kind {kind!r} (have: {', '.join(KINDS)})")
    if n_nodes < 2:
        raise ValueError(f"chaos needs >= 2 nodes, got {n_nodes}")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(
            f"horizon must be finite and positive, got {horizon}")
    return _GENERATORS[kind](rng, n_nodes, horizon)


# -- serialization (failure-repro bundles) ------------------------------


def schedule_to_dict(schedule: FaultSchedule) -> dict:
    """JSON-safe form of a schedule (inverse of :func:`schedule_from_dict`)."""
    return {
        "flaps": [asdict(f) for f in schedule.flaps],
        "spikes": [asdict(s) for s in schedule.spikes],
        "stalls": [asdict(s) for s in schedule.stalls],
        "rnr_windows": [asdict(w) for w in schedule.rnr_windows],
        "chunk_faults": [asdict(c) for c in schedule.chunk_faults],
        "allow_reconnect": schedule.allow_reconnect,
    }


def schedule_from_dict(data: dict) -> FaultSchedule:
    """Rebuild a schedule from :func:`schedule_to_dict` output."""
    return FaultSchedule(
        flaps=[LinkFlap(**e) for e in data.get("flaps", [])],
        spikes=[LatencySpike(**e) for e in data.get("spikes", [])],
        stalls=[NICStall(**e) for e in data.get("stalls", [])],
        rnr_windows=[RNRWindow(**e) for e in data.get("rnr_windows", [])],
        chunk_faults=[ChunkFaults(**e) for e in data.get("chunk_faults", [])],
        allow_reconnect=bool(data.get("allow_reconnect", True)),
    )
