"""Netgauge-style LogGP parameter measurement on the simulated fabric.

The paper used Netgauge's **MPI module** to measure Niagara's LogGP
parameters and fed them to the PLogGP model (Section III).  This module
does the same against the simulator: ping-pong and streaming
experiments through the MPI point-to-point path yield a per-size
:class:`~repro.model.loggp.LogGPTable` that can drive the live
:class:`~repro.core.aggregators.PLogGPAggregator`.

An "ib" mode measuring at the verbs level is also provided — the
equivalent of the Netgauge InfiniBand module the authors could not get
working on their platform.

Methodology (documented approximations, in the spirit of Hoefler's
low-overhead LogGP assessment):

* one-way time ``t1(s)`` = half the ping-pong round trip;
* ``G(s)`` from the local slope of ``t1`` between ``s`` and ``2s``;
* ``g(s)`` from a streaming burst: arrival spacing at the receiver;
* ``o_r(s)`` from a queued drain: ``n`` messages pile up while the
  receiver is busy, then the receiver times draining them;
* ``o_s(s)`` = the non-wire part of the injection gap;
* ``L`` = small-message one-way time minus the measured overheads.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import ClusterConfig, NIAGARA
from repro.mem.buffer import Buffer
from repro.model.loggp import LogGPParams, LogGPTable
from repro.mpi.cluster import Cluster
from repro.units import KiB, MiB


DEFAULT_SIZES = [64, 256, 1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB,
                 256 * KiB, 1 * MiB, 4 * MiB]


def _pingpong(cluster: Cluster, a, b, nbytes: int, rounds: int) -> float:
    """Mean round-trip time for ``nbytes`` messages."""
    sbuf = Buffer(max(nbytes, 1), backed=False)
    rbuf = Buffer(max(nbytes, 1), backed=False)
    times: list[float] = []

    def ping(proc):
        for r in range(rounds):
            t0 = proc.env.now
            yield from proc.send(sbuf, dest=b.rank, tag=100 + r, nbytes=nbytes)
            yield from proc.recv(rbuf, source=b.rank, tag=200 + r, nbytes=nbytes)
            times.append(proc.env.now - t0)

    def pong(proc):
        for r in range(rounds):
            yield from proc.recv(rbuf, source=a.rank, tag=100 + r, nbytes=nbytes)
            yield from proc.send(sbuf, dest=a.rank, tag=200 + r, nbytes=nbytes)

    p1 = cluster.spawn(ping(a))
    p2 = cluster.spawn(pong(b))
    cluster.run(until=cluster.env.all_of([p1, p2]))
    warm = times[1:] if len(times) > 1 else times
    return sum(warm) / len(warm)


def _stream_gap(cluster: Cluster, a, b, nbytes: int, count: int) -> float:
    """Mean inter-arrival spacing of a burst at the receiver."""
    sbuf = Buffer(max(nbytes, 1), backed=False)
    rbufs = [Buffer(max(nbytes, 1), backed=False) for _ in range(count)]
    arrivals: list[float] = []

    def sender(proc):
        reqs = [proc.isend(sbuf, dest=b.rank, tag=300 + i, nbytes=nbytes)
                for i in range(count)]
        yield from proc.wait_all(reqs)

    def receiver(proc):
        reqs = [proc.irecv(rbufs[i], source=a.rank, tag=300 + i, nbytes=nbytes)
                for i in range(count)]
        for req in reqs:
            yield from proc.wait(req)
            arrivals.append(req.completed_at)

    p1 = cluster.spawn(sender(a))
    p2 = cluster.spawn(receiver(b))
    cluster.run(until=cluster.env.all_of([p1, p2]))
    spacings = [b2 - a2 for a2, b2 in zip(arrivals, arrivals[1:])]
    return sum(spacings) / len(spacings)


def _drain_cost(cluster: Cluster, a, b, nbytes: int, count: int) -> float:
    """Per-message receiver drain cost for queued messages."""
    sbuf = Buffer(max(nbytes, 1), backed=False)
    rbufs = [Buffer(max(nbytes, 1), backed=False) for _ in range(count)]
    measured: list[float] = []

    def sender(proc):
        reqs = [proc.isend(sbuf, dest=b.rank, tag=400 + i, nbytes=nbytes)
                for i in range(count)]
        yield from proc.wait_all(reqs)

    def receiver(proc):
        reqs = [proc.irecv(rbufs[i], source=a.rank, tag=400 + i, nbytes=nbytes)
                for i in range(count)]
        # Sleep long enough for every message to be on (or through) the
        # wire, so draining measures pure receiver-side processing.
        yield 0.2
        t0 = proc.env.now
        yield from proc.wait_all(reqs)
        measured.append((proc.env.now - t0) / count)

    p1 = cluster.spawn(sender(a))
    p2 = cluster.spawn(receiver(b))
    cluster.run(until=cluster.env.all_of([p1, p2]))
    return measured[0]


def measure_loggp(
    sizes: Optional[Sequence[int]] = None,
    config: Optional[ClusterConfig] = None,
    rounds: int = 10,
    burst: int = 16,
) -> LogGPTable:
    """Measure a per-size LogGP table through the simulated MPI path."""
    sizes = list(sizes) if sizes is not None else list(DEFAULT_SIZES)
    config = config if config is not None else NIAGARA
    with Cluster(n_nodes=2, config=config) as cluster:
        a, b = cluster.ranks(2)
        entries: dict[int, LogGPParams] = {}
        for s in sizes:
            t1 = _pingpong(cluster, a, b, s, rounds) / 2
            t2 = _pingpong(cluster, a, b, 2 * s, rounds) / 2
            G = max((t2 - t1) / s, 1e-15)
            g = _stream_gap(cluster, a, b, s, burst)
            o_r = _drain_cost(cluster, a, b, s, burst)
            wire = s * G
            o_s = max(g - wire, 1e-9)
            L = max(t1 - o_s - o_r - wire, 1e-9)
            entries[s] = LogGPParams(L=L, o_s=o_s, o_r=o_r, g=g, G=G)
    return LogGPTable(entries)
