"""Collective operations built on the point-to-point layer.

Enough of the collective surface for applications and benchmarks to be
self-contained on the simulated MPI: a dissemination barrier, binomial
broadcast and reduce, and allreduce (reduce + bcast).  All are
generator functions called symmetrically from every rank's program::

    yield from barrier(proc, world)
    yield from bcast(proc, world, array, root=0)
    total = yield from allreduce(proc, world, array, op=np.add)

Tags are namespaced per (collective, epoch, round) so concurrent and
repeated collectives never cross-match; the matching layer accepts any
hashable tag.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

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


def bcast(proc: MPIProcess, world: int, data: np.ndarray, root: int = 0):
    """Binomial-tree broadcast of ``data`` (modified in place); yields."""
    if not (0 <= root < world):
        raise MPIError(f"root {root} outside world of {world}")
    if world == 1:
        return data
        yield  # pragma: no cover
    epoch = proc.next_coll_epoch("bcast")
    nbytes = data.nbytes
    buf = Buffer(max(nbytes, 1))
    parent = _binomial_parent(proc.rank, root, world)
    if parent is None:
        buf.data[:nbytes] = data.view(np.uint8).reshape(-1)
    else:
        yield from proc.recv(buf, source=parent,
                             tag=("coll.bcast", epoch, proc.rank))
        data.view(np.uint8).reshape(-1)[:] = buf.data[:nbytes]
    for child in _binomial_children(proc.rank, root, world):
        yield from proc.send(buf, dest=child,
                             tag=("coll.bcast", epoch, child))
    return data


def reduce(proc: MPIProcess, world: int, data: np.ndarray,
           op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add,
           root: int = 0):
    """Binomial-tree reduction toward ``root``; yields.

    Returns the reduced array on the root, and the partial (its own
    contribution already consumed) elsewhere — matching MPI's contract
    that only the root's recvbuf is significant.
    """
    if not (0 <= root < world):
        raise MPIError(f"root {root} outside world of {world}")
    acc = data.copy()
    if world == 1:
        return acc
        yield  # pragma: no cover
    epoch = proc.next_coll_epoch("reduce")
    nbytes = data.nbytes
    staging = Buffer(max(nbytes, 1))
    # Children send up in reverse binomial order.
    for child in reversed(_binomial_children(proc.rank, root, world)):
        yield from proc.recv(staging, source=child,
                             tag=("coll.reduce", epoch, child))
        incoming = np.frombuffer(
            staging.data[:nbytes].tobytes(), dtype=data.dtype
        ).reshape(data.shape)
        acc = op(acc, incoming)
    parent = _binomial_parent(proc.rank, root, world)
    if parent is not None:
        out = Buffer(max(nbytes, 1))
        out.data[:nbytes] = acc.view(np.uint8).reshape(-1)
        yield from proc.send(out, dest=parent,
                             tag=("coll.reduce", epoch, proc.rank))
    return acc


def allreduce(proc: MPIProcess, world: int, data: np.ndarray,
              op: Callable[[np.ndarray, np.ndarray], np.ndarray] = np.add):
    """Reduce to rank 0 then broadcast; yields, returns the result."""
    acc = yield from reduce(proc, world, data, op=op, root=0)
    if proc.rank != 0:
        acc = np.zeros_like(data)
    result = yield from bcast(proc, world, acc, root=0)
    return result
