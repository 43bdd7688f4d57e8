"""The per-point heap budget, pinned: tracemalloc's high-water mark.

``test_call_budget.py`` pins the Python calls a message costs; this file
pins the bytes a point holds at its peak.  A cluster builds hundreds of
queue pairs and stores, most of them idle, so a per-object container
that costs a few hundred bytes empty (a ``deque`` costs 760, a ``list``
56) shows up here at once.  A change that puts one back, or keeps a
finished round's objects alive, fails with the top allocation sites live
as the run's cluster closes (the point's peak is just before that).

The method: one warm-up run (imports and first-use caches), then the
cyclic collector off and ``tracemalloc`` on around one counted run; the
row is the traced peak, in bytes.  Repeats agree across hash seeds;
what earlier work in the same interpreter left in first-use caches moves
a peak by under 0.1 %, so a run may exceed its row by :data:`SLACK`.
Rows are set to what the code reaches: lower one when a change frees
memory, never raise one to make a change pass.  Allocation sizes depend
on the interpreter's object layout, so the rows are pinned on CPython
3.11 only (docs/PERF.md §3).
"""

from __future__ import annotations

import gc
import platform
import sys
import tracemalloc

import pytest

from repro.bench.overhead import run_overhead
from repro.bench.sweep import run_sweep
from repro.config import NIAGARA
from repro.mpi.cluster import Cluster
from repro.units import KiB

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython"
    or sys.version_info[:2] != (3, 11),
    reason="heap sizes are pinned on CPython 3.11, the only version the "
           "rows were measured on: object layouts change between versions")


def _sweep_point():
    """One 4x4 persist sweep point: 256 KiB, 16 threads, 4 % noise."""
    run_sweep(None, grid=(4, 4), n_threads=16, total_bytes=256 * KiB,
              compute=1e-3, noise_fraction=0.04, iterations=2, warmup=0,
              config=NIAGARA)


def _p2p_point():
    """One persist pair: 128 partitions of 128 B."""
    run_overhead(None, n_user=128, total_bytes=128 * 128, iterations=10,
                 warmup=0, config=NIAGARA)


#: (id, point, traced peak in bytes).  With deque-backed store and
#: receive queues the two read 2,648,210 and 371,692; with a fallback
#: Timeout per park (before the deadline lane) 1,804,522 and 349,592;
#: with a grant event per lock hand-off, park and port grant (before
#: a parked process became its own wake) 1,730,570 and 319,064; with a
#: get event per parked store consumer 1,720,818 and 268,352.
BUDGET = [
    ("persist-sweep-4x4-256KiB", _sweep_point, 1_536_250),
    ("persist-p2p-128x128B", _p2p_point, 260_200),
]
#: Headroom for interpreter state, as a fraction of the row.  The
#: deque-backed queues read +6.4 % on the p2p row, +47 % on the sweep row.
SLACK = 0.01


def _traced(point) -> int:
    """The traced peak of one run of ``point``, collector off."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        point()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def _top_sites(point, monkeypatch, limit: int = 15) -> str:
    """The allocation sites live as the run's cluster closes."""
    snapshots = []
    close = Cluster.close

    def snapshot_then_close(self):
        snapshots.append(tracemalloc.take_snapshot())
        close(self)

    monkeypatch.setattr(Cluster, "close", snapshot_then_close)
    _traced(point)
    stats = snapshots[0].statistics("lineno")[:limit]
    return "\n".join(f"{stat.size:10d} B {stat.count:7d} blocks  "
                     f"{stat.traceback[0]}" for stat in stats)


@pytest.mark.parametrize("point, budget", [row[1:] for row in BUDGET],
                         ids=[row[0] for row in BUDGET])
def test_traced_peak_within_budget(point, budget, monkeypatch):
    point()
    peak = _traced(point)
    if peak > budget * (1 + SLACK):
        pytest.fail(f"traced peak {peak:,} B, budget {budget:,} B "
                    f"(+{peak - budget:,}).  Live as the cluster closes, "
                    f"by site:\n{_top_sites(point, monkeypatch)}")
