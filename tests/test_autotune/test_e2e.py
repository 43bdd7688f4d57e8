"""End-to-end: the controller inside the simulated native module."""

import pytest

from repro.autotune import PlanChoice, TuningStore, build_autotuner
from repro.bench.autotune import run_autotuned_pair
from repro.bench.pair import run_partitioned_pair
from repro.config import NIAGARA
from repro.core import FixedAggregation
from repro.core.module import NativeSpec
from repro.errors import TuningError
from repro.units import us

N_USER = 16
TOTAL = 1 << 20
ITER = dict(iterations=6, warmup=2)


def run_fixed(n_transport, n_qps):
    return run_partitioned_pair(
        lambda: NativeSpec(FixedAggregation(n_transport, n_qps)),
        n_user=N_USER, partition_size=TOTAL // N_USER, **ITER)


def test_static_policy_matches_fixed_aggregation_bit_for_bit():
    baseline = run_fixed(8, 2)
    res = run_autotuned_pair(
        {"policy": "static", "choice": {"n_transport": 8, "n_qps": 2}},
        n_user=N_USER, total_bytes=TOTAL, **ITER)
    assert res.mean_time.hex() == baseline.mean_time.hex()
    assert res.result.wrs_posted == baseline.wrs_posted
    assert not res.explored


def test_bandit_explores_and_converges_to_measured_best():
    res = run_autotuned_pair(
        {"policy": "bandit", "counts": [1, 4, 16], "bandit_seed": 1},
        n_user=N_USER, total_bytes=TOTAL, iterations=40, warmup=2)
    assert res.explored
    assert res.best_plan is not None
    # The converged plan's observed mean is the cheapest of all arms.
    times = {}
    for record in res.round_plans:
        if record["completion_time"] is None:
            continue
        key = (record["n_transport"], record["n_qps"])
        times.setdefault(key, []).append(record["completion_time"])
    means = {k: sum(v) / len(v) for k, v in times.items()}
    best_key = (res.best_plan["n_transport"], res.best_plan["n_qps"])
    assert means[best_key] == min(means.values())
    assert res.best_plan_time == pytest.approx(means[best_key])


def test_delta_tracker_runs_with_timer_path():
    res = run_autotuned_pair(
        {"policy": "delta_tracker", "delta": us(3000),
         "max_delta": us(3000)},
        n_user=N_USER, total_bytes=TOTAL, compute=0.01,
        noise_fraction=0.04, iterations=8, warmup=2)
    assert res.best_plan["delta"] is not None
    assert res.result.timer_flushes >= 0


def test_store_round_trip_second_run_skips_exploration(tmp_path):
    store = TuningStore(tmp_path / "store")
    params = {"policy": "bandit", "counts": [1, 4, 16],
              "config_tag": "test"}
    first = run_autotuned_pair(params, n_user=N_USER, total_bytes=TOTAL,
                               iterations=24, warmup=2, store=store)
    assert first.explored
    assert len(store) == 1
    second = run_autotuned_pair(params, n_user=N_USER, total_bytes=TOTAL,
                                iterations=6, warmup=2, store=store)
    assert not second.explored
    assert second.best_plan == first.best_plan
    plans = {(r["n_transport"], r["n_qps"], r["delta"])
             for r in second.round_plans}
    assert len(plans) == 1


def test_stale_pinned_plan_is_relearned(tmp_path):
    from repro.autotune import workload_key
    from repro.config import NIAGARA

    store = TuningStore(tmp_path / "store")
    params = {"policy": "bandit", "counts": [1, 4], "config_tag": "test"}
    # Seed under the exact key the run will use (workload + the
    # policy's plan-space digest) an entry learned for a wider
    # workload: 32 transport partitions cannot serve 16 user
    # partitions, so the run must re-learn.
    policy = build_autotuner(params).policy_builder(
        N_USER, TOTAL // N_USER, NIAGARA)
    key = workload_key(N_USER, TOTAL, "test",
                       plan_space=policy.plan_space_digest())
    store.put(key, PlanChoice(32, 2))
    res = run_autotuned_pair(params, n_user=N_USER, total_bytes=TOTAL,
                             iterations=16, warmup=2, store=store)
    assert res.explored
    assert store.get(key).n_transport <= N_USER


def test_store_key_distinguishes_plan_spaces(tmp_path):
    """Equal knob tuples in structurally different search spaces must
    not collide: the plan-space digest keeps their entries distinct."""
    store = TuningStore(tmp_path / "store")
    a = {"policy": "bandit", "counts": [1, 4], "config_tag": "test"}
    b = {"policy": "bandit", "counts": [1, 4, 16], "config_tag": "test"}
    run_autotuned_pair(a, n_user=N_USER, total_bytes=TOTAL,
                       iterations=24, warmup=2, store=store)
    assert len(store) == 1
    second = run_autotuned_pair(b, n_user=N_USER, total_bytes=TOTAL,
                                iterations=24, warmup=2, store=store)
    # A different candidate grid is a different plan space: the second
    # run explores instead of replaying the first run's entry.
    assert second.explored
    assert len(store) == 2
    digests = {e["key"]["plan_space"] for e in store.entries()}
    assert len(digests) == 2


def test_invalid_counts_rejected():
    with pytest.raises(TuningError):
        run_autotuned_pair({"policy": "bandit", "counts": [64]},
                           n_user=N_USER, total_bytes=TOTAL, **ITER)


def test_build_autotuner_describe():
    agg = build_autotuner({"policy": "bandit", "counts": [1, 4]})
    assert agg.describe() == "autotune(unplanned)"
    agg.provision(N_USER, TOTAL // N_USER, NIAGARA)
    assert agg.describe().startswith("autotune(bandit(epsilon, 0/")
