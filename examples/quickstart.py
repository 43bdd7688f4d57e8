#!/usr/bin/env python3
"""Quickstart: MPI Partitioned communication over the simulated fabric.

Two ranks on two nodes.  The sender's buffer is split into 16 user
partitions, one per worker thread; each thread "computes" for 1 ms
(with single-thread-delay noise) and then marks its partition ready
with ``MPI_Pready``.  The native-verbs module aggregates the user
partitions into transport partitions chosen by the PLogGP model and
ships them as RDMA writes with immediate data.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Cluster,
    ComputePhase,
    NativeSpec,
    PartitionedBuffer,
    PLogGPAggregator,
    SingleThreadDelay,
    WorkerTeam,
)
from repro.model.tables import NIAGARA_LOGGP
from repro.units import KiB, fmt_bytes, fmt_time, ms

N_PARTITIONS = 16
PARTITION_SIZE = 64 * KiB
COMPUTE = ms(1)


def make_spec():
    """Both sides pass an equivalent module spec to the init calls."""
    return NativeSpec(PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4)))


def main():
    cluster = Cluster(n_nodes=2)
    sender_rank, receiver_rank = cluster.ranks(2)

    send_buf = PartitionedBuffer(N_PARTITIONS, PARTITION_SIZE)
    recv_buf = PartitionedBuffer(N_PARTITIONS, PARTITION_SIZE)
    send_buf.fill_pattern(seed=42)

    def sender(proc):
        # MPI_Psend_init: non-blocking persistent init (matching, QP
        # exchange, and memory registration happen asynchronously).
        req = proc.psend_init(send_buf, dest=1, tag=0, module=make_spec())
        team = WorkerTeam.on(cluster, N_PARTITIONS, "noise")
        phase = ComputePhase(compute=COMPUTE, noise=SingleThreadDelay(0.04))

        yield from proc.start(req)          # MPI_Start
        # Parallel region: each thread computes then marks its partition.
        yield team.run_round(phase, lambda tid: proc.pready(req, tid))
        yield from proc.wait_partitioned(req)   # MPI_Wait
        plan = req.module.plan
        print(f"sender   done at {fmt_time(proc.env.now)}; the PLogGP "
              f"aggregator mapped {N_PARTITIONS} user partitions onto "
              f"{plan.n_transport} transport partitions over "
              f"{plan.n_qps} QP(s) -> {req.module.total_wrs_posted} "
              f"RDMA write(s)")

    def receiver(proc):
        req = proc.precv_init(recv_buf, source=0, tag=0, module=make_spec())
        yield from proc.start(req)
        # MPI_Parrived lets threads consume partitions as they land;
        # here we simply wait for the full buffer.
        yield from proc.wait_partitioned(req)
        print(f"receiver done at {fmt_time(proc.env.now)}; "
              f"{fmt_bytes(recv_buf.nbytes)} received")

    cluster.spawn(sender(sender_rank))
    cluster.spawn(receiver(receiver_rank))
    cluster.run()

    assert np.array_equal(recv_buf.data, send_buf.data), "data mismatch!"
    print("payload verified: every byte arrived intact")


if __name__ == "__main__":
    main()
