"""Tuning-as-a-service: the sharded plan server under fleet load.

The PR4 tuning store persisted one process's learned plans; a fleet
wants that knowledge *shared* — pay the exploration cost once per
``(workload, cluster)`` key, fleet-wide.  This extension stands a
sharded, cached, concurrent-safe serving layer in front of the store
and checks the claims that make it deployable:

* **Hot cache under Zipf traffic** — seeded synthetic clients with
  Zipf-distributed keys, mixed get/commit, and bursty arrivals see a
  warm-cache hit rate above 90%, with modeled p50 lookup latency an
  order of magnitude under the backend-read cost.
* **No torn, no lost entries** — real writer processes racing on one
  entry (confident overwrite and compare-and-swap modes) never
  produce a torn read, and every successful commit is reflected in
  the final monotonic version.
* **Eviction works under pressure** — a tightly bounded store evicts
  (confidence-weighted LRU) while still serving the hot set.
* **The service is transparent** — a warm fleet tenant pins the plan
  a cold tenant committed (zero exploration rounds), and the served
  plan is bit-identical to a direct ``TuningStore`` read of the shard
  directory.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import script_main


def test_ext_serve(benchmark):
    payload = benchmark.pedantic(run_fast, args=("ext_serve",), rounds=1,
                                 iterations=1)
    b = payload["bench"]
    # Zipf traffic keeps the cache hot once the key set is seen.
    assert b["warm_hit_rate"] > 0.9, b
    # Hits are served at cache cost; p50 must sit far below a backend
    # read, and the p99 tail reflects bursty queueing, not collapse.
    assert b["p50_latency_us"] < 10.0, b
    assert b["p99_latency_us"] < 500.0, b
    # Stale CAS commits are rejected and counted, never silently won.
    assert b["conflicts"] > 0, b
    # The multi-process stress holds the integrity invariants exactly.
    for mode in ("confident", "cas"):
        s = payload["stress"][mode]
        assert s["lost_updates"] == 0, s
        assert s["torn_reads"] == 0, s
        assert s["final_version"] == s["total_commits"], s
    assert payload["stress"]["cas"]["total_conflicts"] > 0
    # Bounded shards evict yet keep serving.
    e = payload["eviction"]
    assert e["store_evictions"] > 0, e
    assert e["entries"] <= 4 * 4, e
    # The fleet tenants: cold explores, warm pins, plans bit-identical.
    f = payload["fleet"]
    assert f["warm_skipped_exploration"], f
    assert f["bit_identical"], f
    assert f["tenant_explored"] == [True, False], f

    benchmark.extra_info["warm_hit_rate"] = round(b["warm_hit_rate"], 4)
    benchmark.extra_info["p99_latency_us"] = b["p99_latency_us"]
    benchmark.extra_info["store_evictions"] = e["store_evictions"]
    benchmark.extra_info["cas_conflicts"] = \
        payload["stress"]["cas"]["total_conflicts"]


if __name__ == "__main__":
    sys.exit(script_main("ext_serve", __doc__))
