"""The experiment table's guidelines: each figure's expected shape.

Every row names at least one guideline; the rows that run in under a
second at the fast profile must satisfy theirs here, computed fresh in
one two-worker pass (ext_chaos's is CI's 12-run campaign).  fig06 and
fig08 are checked on the payloads ``test_determinism`` computes,
ext_ablations on ``test_golden``'s points, and the heavy rows (fig14,
ext_halo, ext_stencil, ext_fleet, ext_serve) by CI's full fast
``repro-bench bench run``.  Three planted defects run through the real
specs, and ``bench run`` must name the guideline each one breaks.  The pinned exceptions (fig06's T=32 at
4 KiB, fig07's one QP past 2 MiB) are bands around the measured value;
flipping the point across the baseline must break exactly that band,
as flipping a fig08 point must break its floor under the baseline.
"""

import copy
import dataclasses
import math

import pytest

from repro.cli import main
from repro.exp import (
    FAST,
    ResultCache,
    Runner,
    all_experiments,
    get_experiment,
)
from repro.units import KiB, MiB, ms
from tests.test_bench.test_golden import load

CHEAP = ("fig03", "table1", "fig07", "fig09", "fig10", "fig11", "fig12",
         "fig13", "ext_autotune", "ext_faults", "ext_model_vs_sim",
         "ext_chaos")


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One point cache for the module: a planted run re-executes only
    the points its plant changes."""
    return tmp_path_factory.mktemp("cache")


@pytest.fixture(scope="module")
def payloads(cache_dir):
    """Every cheap row's fast payload, from one two-worker pass."""
    specs = {name: get_experiment(name).build(FAST) for name in CHEAP}
    results = Runner(jobs=2, cache=ResultCache(cache_dir)).run(
        [point for spec in specs.values() for point in spec.points])
    return {name: spec.collect(results) for name, spec in specs.items()}


def test_every_row_names_its_guidelines():
    for experiment in all_experiments():
        names = [g.name for g in experiment.guidelines]
        assert names, experiment.name
        assert len(set(names)) == len(names), experiment.name
        assert all(g.mechanism for g in experiment.guidelines)


@pytest.mark.parametrize("name", CHEAP)
def test_guidelines_hold_at_the_fast_profile(name, payloads):
    broken = get_experiment(name).violations(payloads[name])
    assert [g.name for g in broken] == []


def _timer_never_fires(monkeypatch):
    """fig09's timer with an infinite delta: it never flushes early."""
    import repro.exp.experiments as table

    persist, ploggp, (label, _) = table.DESIGNS
    timer = ["timer", {"delay": ms(4), "delta": math.inf}]
    monkeypatch.setattr(table, "DESIGNS", (persist, ploggp, (label, timer)))


def _model_without_message_costs(monkeypatch):
    """A PLogGP model that forgets the per-message costs o and g.  The
    point parameters do not change, so this one must not be cached."""
    import repro.model.tables as tables

    monkeypatch.setattr(tables, "NIAGARA_LOGGP", dataclasses.replace(
        tables.NIAGARA_LOGGP, o_s=0.0, o_r=0.0, g=0.0))


def _a_workload_delivers_wrong_bytes(monkeypatch):
    """A chaos workload whose every run ends on one bad round.  The
    point parameters do not change, so this one must not be cached."""
    from repro.chaos import WORKLOADS, RunReport

    def wrong_bytes(schedule, seed, module):
        return RunReport(workload="pbcast", completed=True, duration=1e-3,
                         integrity_failures=1)

    monkeypatch.setitem(WORKLOADS, "pbcast", (5, wrong_bytes))


@pytest.mark.parametrize("name, plant, broken, cached", [
    ("fig09", _timer_never_fires, "PLogGP trails the timer at 8 MiB", True),
    ("fig03", _model_without_message_costs,
     "1 partition beats 32 when small", False),
    ("ext_chaos", _a_workload_delivers_wrong_bytes,
     "every run upholds every invariant", False),
], ids=["fig09-timer-never-fires", "fig03-model-without-message-costs",
        "ext_chaos-workload-delivers-wrong-bytes"])
def test_bench_run_names_a_planted_defect(name, plant, broken, cached,
                                          cache_dir, monkeypatch, capsys):
    plant(monkeypatch)
    cache = ["--cache-dir", str(cache_dir)] if cached else ["--no-cache"]
    assert main(["bench", "run", name, "--profile", "fast", "--jobs", "1",
                 "--no-store", "--quiet", *cache]) == 1
    violated = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("VIOLATED")]
    assert len(violated) == 1
    assert violated[0].startswith(f"VIOLATED {name}: {broken} (mechanism: ")


def _golden(name):
    """A row's fast payload, from the float-hex golden it must equal."""
    return {"series": {label: {int(x): float.fromhex(v)
                               for x, v in series.items()}
                       for label, series in load(f"{name}_mini.json").items()}}


@pytest.mark.parametrize("name, label, x, pinned", [
    ("fig06", "T=32", 4 * KiB, "T=32 at 0.90-1.00x at 4 KiB"),
    ("fig07", "QP=1", 4 * MiB, "one QP at 0.82-0.92x at 4 and 16 MiB"),
], ids=["fig06-T32-4KiB", "fig07-QP1-4MiB"])
def test_a_flipped_pinned_exception_violates_its_band(name, label, x, pinned,
                                                      payloads):
    """The pinned exceptions hold as measured; the point flipped to the
    other side of the baseline (1/x) breaks that one guideline alone."""
    experiment = get_experiment(name)
    payload = _golden(name) if name == "fig06" else payloads[name]
    assert experiment.violations(payload) == []
    flipped = copy.deepcopy(payload)
    flipped["series"][label][x] = 1 / payload["series"][label][x]
    assert [g.name for g in experiment.violations(flipped)] == [pinned]


def test_a_flipped_fig08_point_violates_the_baseline_floor():
    """fig08's fast grid sits at >= 1.036x everywhere.  One point flipped
    below the baseline (1/x) breaks the floor guideline and only it."""
    experiment = get_experiment("fig08")
    payload = _golden("fig08")
    assert min(x for s in payload["series"].values()
               for x in s.values()) > 1.03
    assert experiment.violations(payload) == []
    flipped = copy.deepcopy(payload)
    flipped["series"]["4p ploggp"][16 * KiB] = \
        1 / payload["series"]["4p ploggp"][16 * KiB]
    assert [g.name for g in experiment.violations(flipped)] == [
        "every aggregator >= 0.95x of part_persist at every size"]
