"""Blocking collectives built on the point-to-point layer.

A dissemination barrier, called symmetrically from every rank's
program (``yield from barrier(proc, world)``), and the binomial-tree
shape the partitioned collectives of :mod:`repro.coll.tree` reuse.

Tags are namespaced per (collective, epoch, round) so concurrent and
repeated collectives never cross-match; the matching layer accepts any
hashable tag.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import MPIError
from repro.mem.buffer import Buffer
from repro.mpi.process import MPIProcess

_TOKEN_BYTES = 8


def barrier(proc: MPIProcess, world: int):
    """Dissemination barrier across ranks [0, world); yields.

    log2(world) rounds; in round k each rank sends a token to
    ``(rank + 2^k) % world`` and receives from ``(rank - 2^k) % world``.
    """
    if world < 1:
        raise MPIError(f"world must be >= 1, got {world}")
    if world == 1:
        return
        yield  # pragma: no cover
    epoch = proc.next_coll_epoch("barrier")
    token = Buffer(_TOKEN_BYTES, backed=False)
    sink = Buffer(_TOKEN_BYTES, backed=False)
    rounds = math.ceil(math.log2(world))
    for k in range(rounds):
        dist = 1 << k
        to = (proc.rank + dist) % world
        frm = (proc.rank - dist) % world
        tag = ("coll.barrier", epoch, k)
        send_req = proc.isend(token, dest=to, tag=tag)
        recv_req = proc.irecv(sink, source=frm, tag=tag)
        yield from proc.wait_all([send_req, recv_req])


def _binomial_children(rank: int, root: int, world: int) -> list[int]:
    """Children of ``rank`` in a binomial tree rooted at ``root``."""
    virtual = (rank - root) % world
    children = []
    mask = 1
    while mask < world:
        if virtual & (mask - 1) == 0 and virtual | mask < world and not virtual & mask:
            children.append(((virtual | mask) + root) % world)
        mask <<= 1
    return children


def _binomial_parent(rank: int, root: int, world: int) -> Optional[int]:
    virtual = (rank - root) % world
    if virtual == 0:
        return None
    # Clear the lowest set bit.
    parent_virtual = virtual & (virtual - 1)
    return (parent_virtual + root) % world
