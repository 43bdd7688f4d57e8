"""Fleet tenants through the service: warm pinning and bit-identity."""

from repro.serve.fleet import run_served_tenants


def test_warm_tenant_pins_cold_tenants_plan(tmp_path):
    res = run_served_tenants(str(tmp_path), iterations=24, seed=0)
    cold, warm = res["tenants"][0], res["tenants"][-1]
    # Tenant #1 pays the exploration; tenant #2 skips it entirely.
    assert cold["explored"] and not cold["pinned"]
    assert warm["pinned"] and not warm["explored"]
    assert res["warm_skipped_exploration"]
    assert warm["best_plan"] == cold["best_plan"]
    # The service-served plan is bit-identical to a direct TuningStore
    # read of the shard directory (the ISSUE 10 acceptance criterion).
    assert res["bit_identical"]
    assert res["served_plan"] == res["direct_plan"]


def test_serve_fleet_exp_point_is_compact(tmp_path):
    from repro.exp.kinds import run_point

    out = run_point({"kind": "serve_fleet",
                     "params": {"iterations": 24, "seed": 0}})
    assert out["bit_identical"]
    assert out["warm_skipped_exploration"]
    assert out["tenant_explored"] == [True, False]
    assert len(out["tenant_mean_iterations"]) == 2
    assert out["commits"] >= 1
