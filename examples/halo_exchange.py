#!/usr/bin/env python3
"""2-D halo exchange with MPI Partitioned (an application pattern).

Each rank owns a tile of a global field and exchanges one halo face per
neighbour each timestep.  Faces are partitioned row-wise, one partition
per worker thread, so early rows stream out while late rows are still
being computed — the early-bird behaviour MPI Partitioned exists for.

This pattern is the other application kernel the paper's benchmark
suite [14] ships alongside Sweep3D.

Run:  python examples/halo_exchange.py
"""

import numpy as np

from repro import (
    Cluster,
    ComputePhase,
    NativeSpec,
    PartitionedBuffer,
    SingleThreadDelay,
    TimerPLogGPAggregator,
    WorkerTeam,
)
from repro.model.tables import NIAGARA_LOGGP
from repro.units import KiB, fmt_time, ms, us

GRID = (2, 2)           # ranks
N_THREADS = 8           # partitions per face
FACE_PARTITION = 16 * KiB
TIMESTEPS = 3


def spec():
    return NativeSpec(TimerPLogGPAggregator(
        NIAGARA_LOGGP, delay=ms(4), delta=us(10)))


def main():
    px, py = GRID
    n_ranks = px * py
    cluster = Cluster(n_nodes=n_ranks)
    procs = cluster.ranks(n_ranks)
    done = []

    def rank_id(i, j):
        return i * py + j

    def neighbours(i, j):
        out = {}
        if i > 0:
            out["up"] = rank_id(i - 1, j)
        if i < px - 1:
            out["down"] = rank_id(i + 1, j)
        if j > 0:
            out["left"] = rank_id(i, j - 1)
        if j < py - 1:
            out["right"] = rank_id(i, j + 1)
        return out

    opposite = {"up": "down", "down": "up", "left": "right", "right": "left"}

    def program(proc, i, j):
        nbrs = neighbours(i, j)
        sends, recvs = {}, {}
        # One persistent partitioned pair per face, tagged by direction
        # so up/down and left/right faces never cross-match.
        for direction, peer in nbrs.items():
            tag = ("up", "down", "left", "right").index(direction) % 2
            send_face = PartitionedBuffer(N_THREADS, FACE_PARTITION,
                                          backed=False)
            recv_face = PartitionedBuffer(N_THREADS, FACE_PARTITION,
                                          backed=False)
            sends[direction] = proc.psend_init(
                send_face, dest=peer,
                tag=("up", "down", "left", "right").index(direction),
                module=spec())
            recvs[direction] = proc.precv_init(
                recv_face, source=peer,
                tag=("up", "down", "left", "right").index(
                    opposite[direction]),
                module=spec())
        team = WorkerTeam.on(cluster, N_THREADS, f"noise.{proc.rank}")
        phase = ComputePhase(compute=ms(0.5), noise=SingleThreadDelay(0.02))
        send_reqs = list(sends.values())

        def body(tid):
            # Each thread computed its rows of every face: mark them.
            for req in send_reqs:
                yield from proc.pready(req, tid)

        for step in range(TIMESTEPS):
            for req in list(recvs.values()) + send_reqs:
                yield from proc.start(req)
            yield team.run_round(phase, lambda tid: body(tid))
            for req in send_reqs:
                yield from proc.wait_partitioned(req)
            for req in recvs.values():
                yield from proc.wait_partitioned(req)
        done.append((proc.rank, proc.env.now))

    for i in range(px):
        for j in range(py):
            cluster.spawn(program(procs[rank_id(i, j)], i, j))
    cluster.run()

    finish = max(t for _, t in done)
    print(f"{n_ranks} ranks x {N_THREADS} threads ran {TIMESTEPS} halo "
          f"timesteps in {fmt_time(finish)} of virtual time")
    per_step = finish / TIMESTEPS
    print(f"~{fmt_time(per_step)} per step: 0.5ms compute + face "
          f"exchange, with faces streamed row-by-row as threads finish")


if __name__ == "__main__":
    main()
