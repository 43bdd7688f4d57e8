"""The transport engine: machinery shared by every MPI module.

Layering (see ``docs/ARCHITECTURE.md``)::

    sim  ->  ib  ->  engine  ->  mpi modules  ->  core policies

The engine owns what every transport used to reimplement privately:

* :class:`~repro.engine.progress.ProgressEngine` — the single-threaded
  progress driver (lock, kick parking, poller registry);
* :class:`~repro.engine.router.CompletionRouter` — CQ polling and
  per-``wr_id`` completion dispatch;
* :class:`~repro.engine.replay.ReplayTracker` — exactly-once replay
  after reconnect, with :func:`~repro.engine.replay.reconnect_walk`;
* :class:`~repro.engine.credit.CreditManager` — round credits,
  deferred backlogs, and receive-queue restocking;
* :class:`~repro.engine.rail.Rail` — ordered QP sets with striped or
  round-robin scheduling; one rail per NIC port;
* :class:`~repro.engine.watchdog.CircuitBreaker` — per-edge failure
  accounting for the graceful-degradation ladder.

A new transport module composes these and contributes only policy:
what to post, when, and what counts as round completion.
"""

from repro.engine.credit import CreditManager, restock
from repro.engine.progress import ProgressEngine
from repro.engine.rail import Rail, RailPolicy, build_rails
from repro.engine.replay import ReplayTracker, reconnect_walk
from repro.engine.router import CompletionRouter
from repro.engine.watchdog import CircuitBreaker

__all__ = [
    "CircuitBreaker",
    "CompletionRouter",
    "CreditManager",
    "ProgressEngine",
    "Rail",
    "RailPolicy",
    "ReplayTracker",
    "build_rails",
    "reconnect_walk",
    "restock",
]
