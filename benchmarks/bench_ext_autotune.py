"""Closed-loop autotuning convergence (the ``repro.autotune`` loop).

The paper tunes open loop: brute-force a ``(n_transport, n_qps)``
table offline (23 hours on Niagara), pick δ from a profiled arrival
window, then run with the plan frozen.  This extension closes the
loop — a controller observes every round of the persistent exchange
(Pready arrival gaps, completion time, retransmits) and re-plans the
aggregation between rounds.  Two claims are checked here:

* **Convergence** — on Fig. 8's workload (32 partitions, 2 MiB) an
  epsilon-greedy bandit over PLogGP-seeded arms lands within 5 % of
  the offline tuning-table optimum inside 64 iterations.
* **δ retargeting** — on Fig. 11's late-laggard arrival profile a
  mistuned fixed δ (8000 us, above the ~4 ms laggard gap) never fires
  and degenerates to plain aggregation; the tracker retargets δ to the
  observed non-laggard spread and restores the early flush.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from benchmarks.common import run_fast
from repro.exp import script_main


def test_ext_autotune(benchmark, tmp_path):
    payload = benchmark.pedantic(run_fast, args=("ext_autotune",), rounds=1,
                                 iterations=1)
    convergence = list(
        payload["series"]["bandit vs offline table"].values())[0]
    tracker = list(
        payload["series"]["delta tracker vs fixed delta"].values())[0]
    # Bandit within 5% of the brute-forced tuning-table optimum.
    assert convergence >= 1 / 1.05, payload["bandit"]
    # The tracker strictly beats the mistuned fixed-delta timer.
    assert tracker > 1.0, payload["laggard"]

    # Store round trip: a second run replays the learned plan without
    # exploring.
    from repro.autotune import TuningStore
    from repro.bench.autotune import run_autotuned_pair

    store = TuningStore(tmp_path / "store")
    params = {"policy": "bandit", "counts": [1, 4, 16],
              "config_tag": "bench"}
    first = run_autotuned_pair(params, n_user=16, total_bytes=1 << 20,
                               iterations=24, warmup=2, store=store)
    assert first.explored and len(store) == 1
    second = run_autotuned_pair(params, n_user=16, total_bytes=1 << 20,
                                iterations=8, warmup=2, store=store)
    assert not second.explored
    assert second.best_plan == first.best_plan

    benchmark.extra_info["convergence"] = convergence
    benchmark.extra_info["tracker_speedup"] = tracker
    benchmark.extra_info["best_plan"] = str(payload["bandit"]["best_plan"])


if __name__ == "__main__":
    sys.exit(script_main("ext_autotune", __doc__))
