"""Round credits and receive-queue restocking.

The sender may only put data on the wire for round N once the
receiver's ``MPI_Start`` for round N has re-armed the buffers — the
remote-readiness problem behind the MPI Forum's ``MPI_Pbuf_prepare``
proposal (paper Section IV-A).  Both the native module and the persist
baseline carried a private copy of this logic (a ``credit(env)``
closure pair that had already drifted); :class:`CreditManager` is the
single implementation.

The receiver's Start grants a credit that reaches the sender one
fabric latency later; work issued before it arrives is *deferred* and
flushed by the credit's arrival.
"""

from __future__ import annotations

from typing import Callable

from repro.ib.wr import ANON_RECV, RecvWR


def restock(qp, target: int, wr_id_factory: Callable[[], int] = None) -> None:
    """Top a QP's receive queue up to ``target`` entries, in one post.

    Shared by ``MPI_Start`` pre-posting and channel recovery (a
    reconnected QP comes back with whatever survived the flush re-armed
    here).  ``wr_id_factory`` supplies receive wr_ids; the default posts
    the shared anonymous entry (wr_id 0) as the p2p channels do.
    """
    missing = target - len(qp.rq)
    if missing > 0:
        qp.post_recv(*([ANON_RECV] * missing if wr_id_factory is None
                       else [RecvWR(wr_id=wr_id_factory())
                             for _ in range(missing)]))


class CreditManager:
    """One matched pair's round-credit gate plus its deferred backlog.

    ``flush`` is a transport-supplied generator draining the deferred
    list (the native module re-posts ranges; the baseline re-dispatches
    partitions).  It runs on the credit's arrival, in the credit
    process's context — exactly where the old closures ran it.
    """

    def __init__(self, env, flush: Callable):
        self.env = env
        #: Highest round the receiver has granted so far.
        self.armed_round = 0
        #: Work issued ahead of its round credit, FIFO.
        self.deferred: list = []
        self._flush = flush

    def ready(self, round_number: int) -> bool:
        """Whether round ``round_number``'s credit has arrived."""
        return self.armed_round >= round_number

    def defer(self, item) -> None:
        """Park one unit of work behind the pending credit."""
        self.deferred.append(item)

    def grant(self, round_number: int, flight: float) -> None:
        """Receiver side: grant round ``round_number``, ``flight``
        seconds away (one fabric latency).  Arms the round on arrival
        and flushes whatever deferred behind it."""

        def credit(env):
            yield flight
            self.armed_round = max(self.armed_round, round_number)
            if self.deferred:
                yield from self._flush()

        self.env.process(credit(self.env))

    def __repr__(self) -> str:
        return (f"<CreditManager armed_round={self.armed_round} "
                f"deferred={len(self.deferred)}>")
