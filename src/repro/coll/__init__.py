"""Partitioned collectives: MPIX-style persistent collectives composed
from per-neighbor ``Psend``/``Precv`` pairs.

The point-to-point partitioned API (``psend_init``/``pready``/...)
aggregates one matched pair; this layer lifts those semantics into
collectives the way MPI Advance's ``MPIX_Pneighbor_alltoall_init``
does: every edge of the communication graph is its own matched
partitioned pair, so every edge carries its *own* aggregation plan —
a tuning-table lookup at that edge's message size, a PLogGP plan, or
an attached :class:`~repro.autotune.AutotuneController` per neighbor.

Members:

* :class:`PartitionedCollective` — the shared lifecycle (init once,
  then ``start``/``pready``/``wait`` per round);
* :class:`PneighborAlltoall` — persistent partitioned
  neighbor-alltoall (halo exchange's collective);
* :class:`Pbcast` / :class:`Pallreduce` — partitioned broadcast and
  allreduce over binomial trees, forwarding partitions down/up the
  tree as they become ready;
* :func:`spec_for` — the one ``None | Aggregator | ModuleSpec | Plan |
  factory -> ModuleSpec`` resolver every driver's ``module`` goes through;
* :func:`edge_modules` / :func:`per_edge_autotuners` /
  :func:`ladder_modules` — per-edge transport-plan resolution (the
  last wraps each edge in a graceful-degradation ladder);
* :func:`run_stencil` — the threaded 2D/3D stencil application driver
  (worker threads ``Pready`` boundary partitions as they finish).

Entry points live on :class:`~repro.mpi.process.MPIProcess`
(``pneighbor_alltoall_init``, ``pbcast_init``, ``pallreduce_init``,
``pcoll_start``, ``pcoll_pready``, ``pcoll_parrived``, ``pcoll_wait``)
so applications stay written against the rank-local MPI surface.
"""

from repro.coll.base import PartitionedCollective
from repro.coll.neighbor import PneighborAlltoall
from repro.coll.plans import (edge_modules, ladder_modules,
                              per_edge_autotuners, spec_for)
from repro.coll.stencil import StencilResult, run_stencil
from repro.coll.tree import Pallreduce, Pbcast

__all__ = [
    "PartitionedCollective",
    "PneighborAlltoall",
    "Pbcast",
    "Pallreduce",
    "edge_modules",
    "ladder_modules",
    "per_edge_autotuners",
    "spec_for",
    "StencilResult",
    "run_stencil",
]
