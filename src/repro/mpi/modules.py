"""Partitioned transport module interface.

A *module* is the pluggable engine behind a matched Psend/Precv pair —
the analogue of an Open MPI MCA component.  Two implementations exist:

* :class:`repro.mpi.persist_module.PersistModule` — the baseline
  ``part_persist`` behaviour: one internal point-to-point message per
  user partition through the UCX-like stack;
* :class:`repro.core.module.NativeVerbsModule` — the paper's
  contribution: direct verbs with user-partition aggregation.

One module *instance* serves one matched request pair and is shared by
both processes (each side only touches its own half of the state).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.mpi.cluster import Cluster
    from repro.mpi.process import MPIProcess
    from repro.mpi.request import PrecvRequest, PsendRequest


class ModuleSpec(abc.ABC):
    """Factory passed to ``psend_init`` / ``precv_init``.

    Both sides must pass specs with the same ``name``; the sender's spec
    instantiates the module at match time.
    """

    name: str = ""

    @abc.abstractmethod
    def create(self, cluster: "Cluster", send_req: "PsendRequest",
               recv_req: "PrecvRequest"):
        """Build the module instance for a matched pair."""


class PartitionedModule(abc.ABC):
    """Runtime engine for one matched partitioned request pair."""

    def __init__(self, cluster: "Cluster", send_req: "PsendRequest",
                 recv_req: "PrecvRequest"):
        self.cluster = cluster
        self.send_req = send_req
        self.recv_req = recv_req
        self.env = cluster.env
        cluster.modules.append(self)
        #: Set by :class:`repro.mpi.ladder.LadderModule` when this
        #: module runs as a ladder rung: failure events report to
        #: ``ladder.note_failure`` and completion defers to the
        #: ladder's rescue bookkeeping.  ``None`` on the normal path.
        self.ladder = None
        #: Last round this module owns, set when a ladder swaps it out.
        #: A retired rung keeps serving the in-flight round (the two
        #: sides reach the boundary at different times), then its
        #: completion hooks go inert once the request advances past it.
        self.retired_after = None

    def close(self) -> None:
        """Forget everything (:meth:`Cluster.close`); the module is inert.

        Its requests, credit gate, replay tracker and ladder all hold
        the module or its bound methods, and it holds them: emptying it
        cuts every one of those cycles at once.
        """
        self.__dict__.clear()

    def _retired_for(self, req) -> bool:
        """Whether this module no longer owns ``req``'s current round."""
        return (self.retired_after is not None
                and req.round > self.retired_after)

    @abc.abstractmethod
    def setup(self, send_req: "PsendRequest", recv_req: "PrecvRequest") -> None:
        """Synchronous resource creation, run after the async init delay."""

    @abc.abstractmethod
    def start_send(self, req: "PsendRequest"):
        """Re-arm sender state for a round; generator."""

    @abc.abstractmethod
    def start_recv(self, req: "PrecvRequest"):
        """Re-arm receiver state for a round; generator."""

    @abc.abstractmethod
    def pready(self, req: "PsendRequest", partition: int):
        """Handle ``MPI_Pready`` in the calling thread's context; generator."""

    def handle_inbound(self, process: "MPIProcess", header, payload):
        """Handle a module-specific p2p message (persist module only)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not use the p2p path")
        yield  # pragma: no cover - makes this a generator
