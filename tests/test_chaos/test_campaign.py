"""Invariant checks, and campaigns on the experiment harness: a run is
a ``chaos`` point, a campaign the ``ext_chaos`` row."""

import json

import pytest

from repro.chaos import (
    WORKLOADS,
    RunReport,
    check_invariants,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.errors import ConfigError, RetryExhaustedError
from repro.exp import Runner, get_experiment
from repro.exp.kinds import check


# -- invariant checker units -------------------------------------------


def clean_report(**over):
    base = dict(workload="w", completed=True, duration=1e-3,
                integrity_failures=0, counters={}, leaks=[], meta={})
    base.update(over)
    return RunReport(**base)


def test_clean_report_has_no_violations():
    assert check_invariants(clean_report()) == []


def test_incomplete_run_is_a_violation():
    v = check_invariants(clean_report(
        completed=False, meta={"error": "RetryExhaustedError: boom"}))
    assert len(v) == 1 and "RetryExhaustedError" in v[0]


def test_integrity_failures_are_violations():
    v = check_invariants(clean_report(integrity_failures=2))
    assert any("integrity" in s for s in v)


def test_duplicates_beyond_resends_violate_exactly_once():
    ok = clean_report(counters={"mpi.duplicates_dropped": 2,
                                "mpi.replayed_wrs": 3})
    assert check_invariants(ok) == []
    bad = clean_report(counters={"mpi.duplicates_dropped": 4,
                                 "mpi.replayed_wrs": 3})
    assert any("exactly-once" in s for s in check_invariants(bad))


def test_leaks_and_overlong_runs_are_violations():
    v = check_invariants(clean_report(leaks=["edge 0<->1: stuck"]))
    assert any("leak" in s for s in v)
    v = check_invariants(clean_report(duration=2.0), max_duration=1.0)
    assert any("bounded time" in s for s in v)


# -- campaign orchestration --------------------------------------------


def campaign(**args):
    """The ``ext_chaos`` spec of a campaign and its collected payload."""
    spec = get_experiment("ext_chaos").spec(**args)
    return spec, spec.collect(Runner().run(spec.points))


def point(**params):
    """One ``chaos`` point's bundle, run in this process."""
    pt = check("chaos", params)
    return Runner().run([pt])[pt]


def test_spec_validation():
    # A campaign's arguments are its points' params, each read by the
    # kind's parser: a bad one is a usage error before anything runs.
    base = dict(workload="pallreduce", fault="flap_storm", seed=0, index=0)
    for params, message in [
        (dict(workload="nope"), "workload: want one of ext_stencil"),
        (dict(fault="nope"), "fault: want one of flap_storm"),
        (dict(seed=-1), "seed: want an integer >= 0"),
        (dict(index=-1), "index: want an integer >= 0"),
        (dict(horizon=0.0), "horizon: must be > 0"),
        (dict(max_duration=float("nan")), "max_duration: must be finite"),
        (dict(module=["native"]), "module: want"),
        (dict(ladder=1), "ladder: want true or false"),
    ]:
        with pytest.raises(ConfigError, match=message):
            check("chaos", {**base, **params})
    spec = get_experiment("ext_chaos").spec
    with pytest.raises(ConfigError, match="seed: want an integer >= 0"):
        spec(workloads=("pallreduce",), runs=1, seed=-1, ladder=False)
    with pytest.raises(ConfigError, match="max_duration: must be finite"):
        spec(workloads=("pallreduce",), runs=1, seed=0, ladder=False,
             max_duration=float("nan"))


def test_registry_has_the_three_default_workloads():
    assert {"ext_stencil", "pallreduce", "pbcast"} <= set(WORKLOADS)


@pytest.mark.faults
def test_small_campaign_holds_all_invariants():
    experiment = get_experiment("ext_chaos")
    args = dict(workloads=("ext_stencil", "pallreduce"), runs=4, seed=5,
                ladder=False)
    spec, payload = campaign(**args)
    assert experiment.violations(payload) == []
    assert len(payload["runs"]) == 4
    assert {r["kind"] for r in payload["runs"]} == set(payload["kinds"])
    # Seeds are replayable: the same campaign reproduces the same runs,
    # and any one run alone is its point.
    _, again = campaign(**args)
    assert again["runs"] == payload["runs"]
    third = payload["runs"][3]
    assert point(workload="pallreduce", fault=third["kind"], seed=5,
                 index=3) == third
    text = spec.report(payload)
    assert "all invariants held" in text
    assert "ext_stencil" in text


def test_campaign_captures_raised_errors_as_violations(monkeypatch):
    def boom(schedule, seed, module):
        raise RetryExhaustedError("kaboom", edge=(0, 1),
                                  partitions=[(0, 2)])

    monkeypatch.setitem(WORKLOADS, "_boom", (3, boom))
    experiment = get_experiment("ext_chaos")
    spec, payload = campaign(workloads=("_boom",), runs=2, seed=0,
                             ladder=False)
    assert [g.name for g in experiment.violations(payload)] == [
        "every run upholds every invariant"]
    assert sum(len(r["violations"]) for r in payload["runs"]) == 2
    run = payload["runs"][0]
    assert "RetryExhaustedError: kaboom" in run["meta"]["error"]
    assert any("did not complete" in s for s in run["violations"])
    # The failure context is JSON already: a cached copy reads the same.
    assert run["meta"]["context"] == {"edge": [0, 1], "partitions": [[0, 2]]}
    assert json.loads(json.dumps(run)) == run
    assert "2 violation(s) in 2 run(s)" in spec.report(payload)


def test_failure_bundle_round_trips(tmp_path, monkeypatch):
    def bad(schedule, seed, module):
        return RunReport(workload="_bad", completed=True, duration=1e-3,
                         integrity_failures=1,
                         counters={"ib.retry_exhausted": 2})

    monkeypatch.setitem(WORKLOADS, "_bad", (4, bad))
    bundle = point(workload="_bad", fault="rnr_burst", seed=9, index=0)
    # JSON-safe and complete enough to replay the exact run.
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    loaded = json.loads(path.read_text())
    assert loaded == bundle
    assert loaded["kind"] == "rnr_burst"
    assert loaded["violations"]
    rebuilt = schedule_from_dict(loaded["schedule"])
    assert rebuilt.rnr_windows
    assert schedule_to_dict(rebuilt) == bundle["schedule"]


@pytest.mark.slow
@pytest.mark.faults
def test_seed_matrix_campaign_with_ladder():
    """A broader seeded matrix: every kind, both workload families,
    ladder enabled — zero integrity/exactly-once violations."""
    _, payload = campaign(workloads=("ext_stencil", "pallreduce", "pbcast"),
                          runs=12, seed=2, ladder=True)
    assert get_experiment("ext_chaos").violations(payload) == [], \
        [r for r in payload["runs"] if r["violations"]]
    assert {r["kind"] for r in payload["runs"]} == set(payload["kinds"])
