"""Simulated MPI runtime over the InfiniBand substrate.

Provides the subset of MPI the paper exercises:

* persistent **partitioned** point-to-point (``Psend_init`` /
  ``Precv_init`` / ``Start`` / ``Pready`` / ``Parrived`` / ``Test`` /
  ``Wait``) with pluggable transport modules — the baseline
  ``part_persist`` module over a UCX-like protocol stack, and the
  paper's native-verbs module (in :mod:`repro.core`);
* plain non-blocking point-to-point (``isend`` / ``irecv``) used by the
  Netgauge-style parameter measurement and the sweep baseline;
* a single-threaded progress engine with the try-lock discipline the
  paper describes for ``MPI_Parrived`` (Section IV-A).

Entry point: :class:`~repro.mpi.cluster.Cluster`.
"""

from repro.mpi.cluster import Cluster
from repro.mpi.process import MPIProcess
from repro.mpi.request import (
    Request,
    P2PRequest,
    PartitionedRequest,
    PsendRequest,
    PrecvRequest,
)
from repro.engine.progress import ProgressEngine

__all__ = [
    "Cluster",
    "MPIProcess",
    "Request",
    "P2PRequest",
    "PartitionedRequest",
    "PsendRequest",
    "PrecvRequest",
    "ProgressEngine",
]
