"""The live re-tuning probe: trajectory structure and determinism.

The full episode (both policies measurably re-converging onto the
congested-best plan) is checked by ``ext_fleet``'s guidelines on every
``repro-bench bench run ext_fleet``; here a short episode checks the
mechanics — neighbor windowing, round bookkeeping, the near-optimal-set
summary — cheaply.
"""

from repro.fleet import run_reconvergence
from repro.fleet.run import NEIGHBOR_NBYTES, NEIGHBOR_PAIRS, NEIGHBOR_STREAMS

PARAMS = {"policy": "bandit", "counts": [4, 16], "deltas": [None],
          "epsilon": 0.3, "decay": 0.9, "bandit_seed": 3, "window": 4}
SHORT = dict(quiet_rounds=4, congested_rounds=6, tail_rounds=2, seed=1)


def test_reconvergence_summary_shape():
    res = run_reconvergence(PARAMS, **SHORT)
    assert res["arrive_round"] == 4
    assert res["depart_round"] == 10
    assert len(res["rounds"]) == 12
    assert [r["round"] for r in res["rounds"]] == list(range(1, 13))
    assert res["neighbor"] == {"pairs": NEIGHBOR_PAIRS,
                               "nbytes": NEIGHBOR_NBYTES,
                               "streams": NEIGHBOR_STREAMS}
    assert res["quiet_best"] is not None
    assert res["congested_best"] is not None
    # The near-optimal set always contains the congested-best plan.
    assert res["congested_best"] in res["near_optimal_plans"]
    assert isinstance(res["adapted"], bool)


def test_congestion_slows_the_pair():
    res = run_reconvergence(PARAMS, **SHORT)
    quiet = [r["completion_time"] for r in res["rounds"]
             if r["round"] < res["arrive_round"]]
    congested = [r["completion_time"] for r in res["rounds"]
                 if res["arrive_round"] < r["round"] < res["depart_round"]]
    assert min(congested) > max(quiet)
    # The arrival round itself is excluded from the congested stats
    # (mixed-regime), so regret is summed over len-1 rounds.
    assert res["regret"] is not None and res["regret"] >= 0.0


def test_reconvergence_deterministic():
    a = run_reconvergence(PARAMS, **SHORT)
    b = run_reconvergence(PARAMS, **SHORT)
    assert a == b
