"""The two-process partitioned micro-benchmark harness.

Both the overhead benchmark (Section V-B) and the perceived-bandwidth
benchmark (Section V-C) are instances of the same round, modelled on
the public micro-benchmarks of [14] the paper modified and timed by the
shared loop in :mod:`repro.runtime.rounds` (barrier, release stamp,
finish stamps, warm-up dropped):

* one user partition per thread;
* per round: ``MPI_Start`` both sides, sender threads compute (plus
  injected noise) and ``MPI_Pready`` their partition, both sides
  ``MPI_Wait``;
* 10 warm-up / 100 measured iterations for point-to-point runs (the
  defaults here are smaller; benchmarks pass the paper's counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.coll.plans import spec_for
from repro.config import ClusterConfig, NIAGARA
from repro.mem.buffer import PartitionedBuffer
from repro.mpi.cluster import Cluster
from repro.mpi.modules import ModuleSpec
from repro.runtime import ComputePhase, NoNoise, NoiseModel, WorkerTeam
from repro.runtime.rounds import RoundTimes, spawn_rounds


@dataclass
class IterationRecord:
    """Timings of one measured iteration."""

    #: Barrier-release time (both sides synchronized).
    t0: float = 0.0
    t_send_done: float = 0.0
    t_recv_done: float = 0.0
    #: Per-partition ``MPI_Pready`` times.
    pready_times: list = field(default_factory=list)
    #: Per-partition arrival times at the receiver.
    arrival_times: list = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        """Iteration wall time (slower side)."""
        return max(self.t_send_done, self.t_recv_done) - self.t0

    @property
    def laggard_pready(self) -> float:
        return max(self.pready_times)

    @property
    def last_partition_latency(self) -> float:
        """Receiver completion relative to the last ``Pready``."""
        return self.t_recv_done - self.laggard_pready


@dataclass
class PairBenchResult(RoundTimes):
    """All measured iterations of one configuration."""

    n_user: int
    partition_size: int
    total_bytes: int
    compute: float
    iterations: list[IterationRecord] = field(default_factory=list)
    #: WRs the module posted across the whole run (native module only).
    wrs_posted: Optional[int] = None
    timer_flushes: Optional[int] = None
    #: Fabric counters at end of run (fault/retry/reconnect stats).
    counters: dict = field(default_factory=dict)

    @property
    def times(self) -> list[float]:
        return [it.elapsed for it in self.iterations]

    @property
    def mean_perceived_bandwidth(self) -> float:
        """total bytes / latency-of-last-partition, averaged (Section V-C)."""
        return float(np.mean(
            [self.total_bytes / it.last_partition_latency
             for it in self.iterations]))

    def arrival_rounds(self) -> list[list[float]]:
        """Per-iteration ``Pready`` times (input to min-δ estimation)."""
        return [list(it.pready_times) for it in self.iterations]


def run_partitioned_pair(
    spec_factory: Callable[[], ModuleSpec],
    n_user: int,
    partition_size: int,
    compute: float = 0.0,
    noise: Optional[NoiseModel] = None,
    iterations: int = 10,
    warmup: int = 3,
    config: Optional[ClusterConfig] = None,
    backed: bool = False,
    seed: Optional[int] = None,
    fault_schedule=None,
) -> PairBenchResult:
    """Run one (module, workload) configuration end to end.

    ``spec_factory`` — anything :func:`repro.coll.spec_for` accepts — is
    resolved once per side so each gets its own spec object.  With
    ``backed=True`` real bytes move and are verified.
    ``fault_schedule`` (a :class:`repro.faults.FaultSchedule`) arms
    deterministic fault injection on the pair's fabric.
    """
    config = config if config is not None else NIAGARA
    if seed is not None:
        config = config.with_changes(seed=seed)
    cluster = Cluster(n_nodes=2, config=config)
    if fault_schedule is not None:
        cluster.fabric.install_faults(fault_schedule)
    sender_proc, receiver_proc = cluster.ranks(2)
    if n_user > config.host.cores_per_node:
        sender_proc.sw_multiplier = config.host.oversubscription_penalty
    sbuf = PartitionedBuffer(n_user, partition_size, backed=backed)
    rbuf = PartitionedBuffer(n_user, partition_size, backed=backed)
    if backed:
        sbuf.fill_pattern(seed=config.seed)
    noise = noise if noise is not None else NoNoise()
    phase = ComputePhase(compute=compute, noise=noise)
    records = [IterationRecord() for _ in range(warmup + iterations)]
    reqs = []

    def setup(index, proc):
        if index == 0:
            req = proc.psend_init(sbuf, dest=1, tag=0,
                                  module=spec_for(spec_factory))
            team = WorkerTeam.on(cluster, n_user, "noise.sender")
        else:
            req = proc.precv_init(rbuf, source=0, tag=0,
                                  module=spec_for(spec_factory))
        reqs.append(req)

        def one_round(it):
            yield from proc.start(req)
            if index == 0:
                yield team.run_round(
                    phase, lambda tid: proc.pready(req, tid))
            yield from proc.wait_partitioned(req)
            if index == 0:
                records[it].pready_times = list(req.pready_times)
            else:
                records[it].arrival_times = list(req.arrival_times)

        return one_round

    clock = spawn_rounds(cluster, [sender_proc, receiver_proc],
                         iterations, warmup, setup)
    cluster.run()
    if backed and not np.array_equal(rbuf.data, sbuf.data):
        raise AssertionError("receive buffer does not match send buffer")
    for rec, t0, done in zip(records, clock.start.tolist(),
                             clock.finish.tolist()):
        rec.t0, (rec.t_send_done, rec.t_recv_done) = t0, done
    module = reqs[0].module
    return PairBenchResult(
        n_user=n_user,
        partition_size=partition_size,
        total_bytes=n_user * partition_size,
        compute=compute,
        iterations=records[warmup:],
        wrs_posted=getattr(module, "total_wrs_posted", None),
        timer_flushes=getattr(module, "timer_flushes", None),
        counters=cluster.fabric.counters.as_dict(),
    )
