"""The per-message event budget, pinned (docs/PERF.md, "event budget").

Every sweep point pays a fixed number of kernel dispatches per message
or work request, and nearly all host time scales with that number.  The
rows below are the census of ``run_overhead`` at the commit that set the
budget: kernel events per round, measured as the difference between a
30-round and a 10-round run so that set-up cancels.  A refactor that
re-adds a zero-delay hop, an unobserved event or a per-WR grant fails
here, with the census by resume site in the message to say which.

Virtual time is not checked here — the float-hex goldens do that.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.bench.overhead import run_overhead
from repro.config import NIAGARA
from repro.core import FixedAggregation
from repro.exp.modules import build_module
from repro.sim.core import Environment
from repro.sim.profile import KernelProfile
from repro.units import KiB, MiB

#: (id, module factory, user partitions, total bytes, events per round,
#:  unit the budget is quoted per, number of those units per round).
BUDGET = [
    ("persist-eager-32x512B", lambda: None, 32, 32 * 512,
     574, "message", 32),
    ("persist-eager-128x128B", lambda: None, 128, 128 * 128,
     2189, "message", 128),
    ("persist-rndv-32x16KiB", lambda: None, 32, 32 * 16 * KiB,
     1134, "message (3 WRs)", 32),
    ("persist-rndv-32x1MiB", lambda: None, 32, 32 * MiB,
     2107, "message (3 WRs)", 32),
    ("fixed-T32-1qp-32x256KiB", lambda: FixedAggregation(32, 1), 32, 8 * MiB,
     724, "WR (1 chunk)", 32),
    ("fixed-T4-1qp-8MiB", lambda: FixedAggregation(4, 1), 32, 8 * MiB,
     277, "WR (8 chunks)", 4),
    ("fixed-T32-1qp-32x1MiB", lambda: FixedAggregation(32, 1), 32, 32 * MiB,
     1108, "WR (4 chunks)", 32),
    ("ploggp-128x128B", lambda: build_module(["ploggp", {}]), 128, 128 * 128,
     406, "user partition", 128),
]


def _census(module, n_user, total_bytes, iterations, monkeypatch):
    """(events, dispatches per resume site) over one ``run_overhead``."""
    profiles = []
    plain_init = Environment.__init__

    def profiled_init(env, *args, **kwargs):
        plain_init(env, *args, **kwargs)
        profiles.append(KernelProfile.attach(env))

    with monkeypatch.context() as patch:
        patch.setattr(Environment, "__init__", profiled_init)
        run_overhead(module, n_user=n_user, total_bytes=total_bytes,
                     iterations=iterations, warmup=0, config=NIAGARA)
    sites = Counter()
    for profile in profiles:
        sites.update(profile.sites)
    return sum(profile.events for profile in profiles), sites


@pytest.mark.parametrize(
    "module, n_user, total_bytes, budget, unit, units_per_round",
    [row[1:] for row in BUDGET], ids=[row[0] for row in BUDGET])
def test_events_per_round_within_budget(module, n_user, total_bytes, budget,
                                        unit, units_per_round, monkeypatch):
    short, short_sites = _census(module(), n_user, total_bytes, 10, monkeypatch)
    long, long_sites = _census(module(), n_user, total_bytes, 30, monkeypatch)
    assert (long - short) % 20 == 0, "events per round is not constant"
    per_round = (long - short) // 20
    if per_round > budget:
        per_site = {site: (long_sites[site] - short_sites[site]) / 20
                    for site in long_sites}
        census = "\n".join(
            f"{count:10.2f}  {site}" for site, count in
            sorted(per_site.items(), key=lambda kv: (-kv[1], kv[0])) if count)
        pytest.fail(
            f"{per_round} events per round, budget {budget} "
            f"({per_round / units_per_round:.1f} per {unit}, budget "
            f"{budget / units_per_round:.1f}).  Per round, by resume site:\n"
            f"{census}")


def test_budget_headlines():
    """The four numbers docs/PERF.md and ROADMAP item 1 quote."""
    per_unit = {row[0]: row[4] / row[6] for row in BUDGET}
    assert per_unit["persist-eager-32x512B"] <= 20.0
    assert per_unit["persist-rndv-32x16KiB"] <= 40.5
    assert per_unit["fixed-T32-1qp-32x256KiB"] <= 23.7
    assert per_unit["ploggp-128x128B"] <= 3.2
