"""Shared-fabric fleet: contention ranking, tenancy, live re-tuning.

The paper tunes one job on a quiet fabric; a production fleet shares
its Dragonfly+ spine between tenants.  This extension runs the
partitioned stack on a routed topology with per-link contention queues
and checks three claims:

* **Ranking flip** — the fig08-style transport-design ranking is not
  contention-invariant: on the quiet fabric the wide T=16 layout wins,
  but as background tenants congest the spine the per-chunk
  arbitration cost makes fewer, larger messages (T=4) win instead,
  and ``part_persist`` collapses outright.
* **Tenancy** — a multi-tenant mix suffers measurable per-job
  slowdowns vs each job running alone on an identical fabric, and a
  noisy permutation-traffic neighbor makes them materially worse.
* **Live re-convergence** — when the neighbor arrives mid-run, both
  closed-loop policies (the bandit and the plan-mutation walk, with
  sliding-window cost estimates) abandon the quiet-best plan and
  re-converge onto the congested-best one within the episode.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import script_main


def test_ext_fleet(benchmark):
    payload = benchmark.pedantic(run_fast, args=("ext_fleet",), rounds=1,
                                 iterations=1)
    ranking = payload["ranking"]
    # Quiet fabric: the wide layout beats the aggregated ones...
    assert ranking["0"]["times"]["T=16"] < ranking["0"]["times"]["T=4"]
    # ...and under contention the ranking flips (aggregation wins).
    for level in ("1", "2"):
        assert ranking[level]["times"]["T=4"] \
            < ranking[level]["times"]["T=16"], ranking[level]
        assert ranking[level]["best"] != "persist", ranking[level]
    # Contention slows every design monotonically vs the quiet fabric.
    for name in ("persist", "T=4", "T=16"):
        assert ranking["2"]["times"][name] > ranking["0"]["times"][name]
    # The shared mix suffers real slowdowns; the neighbor makes it worse.
    slow = payload["slowdowns"]
    assert all(v > 1.05 for v in slow["shared"].values()), slow
    assert all(slow["with_neighbor"][j] > slow["shared"][j]
               for j in slow["shared"]), slow
    # Both live policies re-converge onto a genuinely different plan.
    for policy, a in payload["autotune"].items():
        assert a["adapted"], (policy, a)
        assert a["quiet_best"] != a["congested_best"], (policy, a)
        assert a["rounds_to_reconverge"] is not None, (policy, a)

    benchmark.extra_info["best_by_level"] = {
        level: cell["best"] for level, cell in ranking.items()}
    benchmark.extra_info["slowdowns"] = {
        kind: {j: round(v, 2) for j, v in vals.items()}
        for kind, vals in slow.items()}
    benchmark.extra_info["reconverge_rounds"] = {
        policy: a["rounds_to_reconverge"]
        for policy, a in payload["autotune"].items()}


if __name__ == "__main__":
    sys.exit(script_main("ext_fleet", __doc__))
