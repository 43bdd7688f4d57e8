#!/usr/bin/env python3
"""Watching the wire: the early-bird window, made visible.

Enables tracing and compares the sender's egress timeline for the
static PLogGP aggregator against the timer-based design under a heavy
laggard.  The static design leaves the wire idle while its transport
group waits for the laggard (the paper's Fig. 10 argument); the timer
design fills that window with the early partitions.

Run:  python examples/wire_utilization.py
"""

from repro import (
    Cluster,
    ComputePhase,
    NativeSpec,
    NIAGARA,
    PartitionedBuffer,
    PLogGPAggregator,
    SingleThreadDelay,
    TimerPLogGPAggregator,
    WorkerTeam,
)
from repro.model.tables import NIAGARA_LOGGP
from repro.units import MiB, fmt_bytes, fmt_time, ms, us

N_PARTITIONS = 32
TOTAL = 8 * MiB
COMPUTE = ms(10)
NOISE = 0.2  # 2 ms laggard: a wide window


def run(aggregator):
    config = NIAGARA.with_changes(trace_enabled=True, real_buffers=False)
    cluster = Cluster(n_nodes=2, config=config)
    sender_rank, receiver_rank = cluster.ranks(2)
    sbuf = PartitionedBuffer(N_PARTITIONS, TOTAL // N_PARTITIONS,
                             backed=False)
    rbuf = PartitionedBuffer(N_PARTITIONS, TOTAL // N_PARTITIONS,
                             backed=False)
    spec = lambda: NativeSpec(aggregator)
    marks = {}

    def sender(proc):
        req = proc.psend_init(sbuf, dest=1, tag=0, module=spec())
        team = WorkerTeam.on(cluster, N_PARTITIONS, "noise")
        phase = ComputePhase(compute=COMPUTE,
                             noise=SingleThreadDelay(NOISE, fixed_victim=31))
        yield from proc.start(req)
        marks["t0"] = proc.env.now
        yield team.run_round(phase, lambda tid: proc.pready(req, tid))
        yield from proc.wait_partitioned(req)
        marks["done"] = proc.env.now

    def receiver(proc):
        req = proc.precv_init(rbuf, source=0, tag=0, module=spec())
        yield from proc.start(req)
        yield from proc.wait_partitioned(req)

    cluster.spawn(sender(sender_rank))
    cluster.spawn(receiver(receiver_rank))
    cluster.run()
    laggard_arrival = marks["t0"] + COMPUTE * (1 + NOISE)
    # The sender's egress: every wire chunk node 0 put out.
    chunks = [(rec.time, rec.data["nbytes"]) for rec in cluster.trace
              if rec.category == "ib.chunk" and rec.subject == 0]
    before = sum(n for start, n in chunks if start < laggard_arrival)
    after = sum(n for start, n in chunks if start >= laggard_arrival)
    return before, after, marks["done"] - marks["t0"]


def main():
    designs = {
        "static ploggp": PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4)),
        "timer (d=35us)": TimerPLogGPAggregator(
            NIAGARA_LOGGP, delay=ms(4), delta=us(35)),
    }
    print(f"{fmt_bytes(TOTAL)} over {N_PARTITIONS} partitions; laggard "
          f"+{fmt_time(COMPUTE * NOISE)}\n")
    for name, agg in designs.items():
        before, after, elapsed = run(agg)
        print(f"{name:>15}: round {fmt_time(elapsed)}; "
              f"{fmt_bytes(before)} on the wire before the laggard, "
              f"{fmt_bytes(after)} left for the tail")
    print("\nReading: the static design holds the laggard's whole")
    print("transport group back, so a full group's bytes ride the tail;")
    print("the timer design flushes everything but the laggard's own")
    print("partition into the idle window (Fig. 10's early-bird room).")


if __name__ == "__main__":
    main()
