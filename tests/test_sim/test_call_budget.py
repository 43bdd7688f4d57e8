"""The per-message host budget, pinned: Python calls per round.

``test_event_budget.py`` pins how many kernel events a message costs;
this file pins what the host pays around them.  The census is
``sys.setprofile``'s ``call`` events (every Python function entry and
every generator resume; calls into C are not counted) over the same
``run_overhead`` rows, as the difference between a 30-round and a
10-round run after a warm-up run, so set-up, imports and first-use
caches cancel.  A refactor that puts a wrapper frame, a property hop or
a per-message re-derivation back on the path fails here, with the census
by function in the message to say which.

The cyclic collector is off around each counted run, so nothing it
happens to collect (and finalize) lands in the census.  The driver's own
``Cluster.close`` closes its NIC stages and channel pumps inside the
run; both runs close the same ones, so those calls cancel.

Counts depend on the interpreter's frame model, so they are pinned on
CPython 3.11 only (docs/PERF.md §1, "The call budget").
"""

from __future__ import annotations

import gc
import platform
import sys
from collections import Counter

import pytest

from repro.bench.overhead import run_overhead
from repro.config import NIAGARA
from repro.core import FixedAggregation
from repro.exp.modules import build_module
from repro.units import KiB, MiB

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython"
    or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned on CPython 3.11, the only version the "
           "rows were measured on: 3.12 inlines comprehensions (PEP 709) "
           "and each version enters frames differently, so another "
           "interpreter counts another number")

#: (id, module factory, user partitions, total bytes, calls per round,
#:  unit the budget is quoted per, number of those units per round) —
#: the rows of test_event_budget.py.
BUDGET = [
    ("persist-eager-32x512B", lambda: None, 32, 32 * 512,
     3892, "message", 32),
    ("persist-eager-128x128B", lambda: None, 128, 128 * 128,
     15067, "message", 128),
    ("persist-rndv-32x16KiB", lambda: None, 32, 32 * 16 * KiB,
     7694, "message (3 WRs)", 32),
    ("persist-rndv-32x1MiB", lambda: None, 32, 32 * MiB,
     12364, "message (3 WRs)", 32),
    ("fixed-T32-1qp-32x256KiB", lambda: FixedAggregation(32, 1), 32, 8 * MiB,
     5231, "WR (1 chunk)", 32),
    ("fixed-T4-1qp-8MiB", lambda: FixedAggregation(4, 1), 32, 8 * MiB,
     1785, "WR (8 chunks)", 4),
    ("fixed-T32-1qp-32x1MiB", lambda: FixedAggregation(32, 1), 32, 32 * MiB,
     7503, "WR (4 chunks)", 32),
    ("ploggp-128x128B", lambda: build_module(["ploggp", {}]), 128, 128 * 128,
     2377, "user partition", 128),
]


def _census(module, n_user, total_bytes, iterations):
    """(calls, calls per function qualname) over one ``run_overhead``."""
    by_name = Counter()

    def profile(frame, event, _arg):
        if event == "call":
            by_name[frame.f_code.co_qualname] += 1

    gc.collect()
    gc.disable()
    try:
        sys.setprofile(profile)
        try:
            run_overhead(module, n_user=n_user, total_bytes=total_bytes,
                         iterations=iterations, warmup=0, config=NIAGARA)
        finally:
            sys.setprofile(None)
    finally:
        gc.enable()
    return sum(by_name.values()), by_name


@pytest.mark.parametrize(
    "module, n_user, total_bytes, budget, unit, units_per_round",
    [row[1:] for row in BUDGET], ids=[row[0] for row in BUDGET])
def test_calls_per_round_within_budget(module, n_user, total_bytes, budget,
                                       unit, units_per_round):
    run_overhead(module(), n_user=n_user, total_bytes=total_bytes,
                 iterations=2, warmup=0, config=NIAGARA)
    short, short_names = _census(module(), n_user, total_bytes, 10)
    long, long_names = _census(module(), n_user, total_bytes, 30)
    assert (long - short) % 20 == 0, "calls per round is not constant"
    per_round = (long - short) // 20
    if per_round > budget:
        per_name = {name: (long_names[name] - short_names[name]) / 20
                    for name in long_names}
        census = "\n".join(
            f"{count:10.2f}  {name}" for name, count in
            sorted(per_name.items(), key=lambda kv: (-kv[1], kv[0])) if count)
        pytest.fail(
            f"{per_round} calls per round, budget {budget} "
            f"({per_round / units_per_round:.1f} per {unit}, budget "
            f"{budget / units_per_round:.1f}).  Per round, by function:\n"
            f"{census}")


def test_budget_headlines():
    """The four numbers docs/PERF.md §1 quotes."""
    per_unit = {row[0]: row[4] / row[6] for row in BUDGET}
    assert per_unit["persist-eager-32x512B"] <= 125
    assert per_unit["persist-eager-128x128B"] <= 125
    assert per_unit["persist-rndv-32x16KiB"] <= 250
    assert per_unit["fixed-T32-1qp-32x256KiB"] <= 240
    assert per_unit["ploggp-128x128B"] <= 30
