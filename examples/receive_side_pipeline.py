#!/usr/bin/env python3
"""Receive-side pipelining with ``MPI_Parrived``.

Receive-side partitioning (Dosanjh & Grant, the paper's ref. [9]) lets
consumer threads start working on each partition as soon as it lands
instead of waiting for the whole message.  Here the sender's threads
finish at staggered times (heavy noise), and each receiver thread polls
``MPI_Parrived`` on its own partition, then "processes" it — overlapping
receive-side compute with the remaining transfers.

The run prints, per partition, when it arrived and when its processing
finished, plus the end-to-end win over a wait-for-everything receiver.

Run:  python examples/receive_side_pipeline.py
"""

import numpy as np

from repro import (
    Cluster,
    ComputePhase,
    NativeSpec,
    PartitionedBuffer,
    TimerPLogGPAggregator,
    UniformNoise,
    WorkerTeam,
)
from repro.model.tables import NIAGARA_LOGGP
from repro.units import KiB, fmt_time, ms, us

N_PARTITIONS = 8
PARTITION_SIZE = 256 * KiB
COMPUTE = ms(1)
PROCESS_TIME = ms(0.3)  # receive-side work per partition


def spec():
    return NativeSpec(TimerPLogGPAggregator(
        NIAGARA_LOGGP, delay=ms(4), delta=us(10)))


def run(pipelined: bool) -> float:
    cluster = Cluster(n_nodes=2)
    sender_rank, receiver_rank = cluster.ranks(2)
    send_buf = PartitionedBuffer(N_PARTITIONS, PARTITION_SIZE)
    recv_buf = PartitionedBuffer(N_PARTITIONS, PARTITION_SIZE)
    send_buf.fill_pattern(seed=3)
    finish = {}

    def sender(proc):
        req = proc.psend_init(send_buf, dest=1, tag=0, module=spec())
        team = WorkerTeam.on(cluster, N_PARTITIONS, "noise")
        # Heavy uniform noise staggers the producers across ~1 ms.
        phase = ComputePhase(compute=COMPUTE, noise=UniformNoise(1.0))
        yield from proc.start(req)
        yield team.run_round(phase, lambda tid: proc.pready(req, tid))
        yield from proc.wait_partitioned(req)

    def consumer_thread(proc, req, tid, log):
        # Poll MPI_Parrived for this thread's partition, then process.
        while not (yield from proc.parrived(req, tid)):
            pass
        arrived = proc.env.now
        yield proc.env.timeout(PROCESS_TIME)
        log[tid] = (arrived, proc.env.now)

    def receiver(proc):
        req = proc.precv_init(recv_buf, source=0, tag=0, module=spec())
        yield from proc.start(req)
        log = {}
        if pipelined:
            threads = [
                proc.env.process(consumer_thread(proc, req, tid, log))
                for tid in range(N_PARTITIONS)
            ]
            yield proc.env.all_of(threads)
            yield from proc.wait_partitioned(req)
        else:
            yield from proc.wait_partitioned(req)
            for tid in range(N_PARTITIONS):
                arrived = proc.env.now
                yield proc.env.timeout(PROCESS_TIME)
                log[tid] = (arrived, proc.env.now)
        finish["time"] = proc.env.now
        finish["log"] = log

    cluster.spawn(sender(sender_rank))
    cluster.spawn(receiver(receiver_rank))
    cluster.run()
    assert np.array_equal(recv_buf.data, send_buf.data)
    if pipelined:
        print("partition   arrived   processed")
        for tid in sorted(finish["log"]):
            arrived, processed = finish["log"][tid]
            print(f"{tid:>9}  {fmt_time(arrived):>8}  {fmt_time(processed):>9}")
    return finish["time"]


def main():
    t_pipelined = run(pipelined=True)
    t_bulk = run(pipelined=False)
    print(f"\npipelined (Parrived per partition): {fmt_time(t_pipelined)}")
    print(f"bulk      (Wait, then process all): {fmt_time(t_bulk)}")
    print(f"overlap win: {t_bulk / t_pipelined:.2f}x")


if __name__ == "__main__":
    main()
