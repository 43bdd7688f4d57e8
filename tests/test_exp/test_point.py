"""``repro-bench point``: one validator over every kind's params.

The validator (:func:`repro.exp.kinds.check`) is pinned three ways: the
traffic the harness really sends passes it unchanged, no argv makes it
raise anything but a usage error, and a point run from the shell is the
harness's point, key and metrics alike.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ConfigError
from repro.exp import FAST, PAPER, Runner, all_experiments, get_experiment
from repro.exp.kinds import KINDS, PARAMS, check, point_scenario


@pytest.mark.parametrize("profile", [FAST, PAPER], ids=["fast", "paper"])
def test_every_experiment_point_passes_the_validator(profile):
    # The params column and the parser table admit every point the
    # registered experiments build, and parse each to itself.
    for experiment in all_experiments():
        for point in experiment.build(profile).points:
            assert check(point.kind, point.params) == point, point


def test_every_param_a_kind_takes_has_a_parser():
    for name, row in KINDS.items():
        assert set(row.needs) | set(row.params) <= set(PARAMS), name
        assert row.plan is None or set(row.plan[1:]) <= set(row.needs), name


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
_VALUES = (st.sampled_from(["64KiB", "4ms", "35us", "4x4", "2x2x2", "nan",
                            "inf", "-1", "0", "1e999", "4,8", ",", "1.5KiB",
                            "cas", "spread", "3x", "KiB", "ms"])
           | _JSON.map(json.dumps) | st.text(max_size=12))
_ITEMS = st.lists(
    st.tuples(st.sampled_from(sorted(PARAMS)) | st.text(max_size=6), _VALUES)
    .map("=".join) | st.text(max_size=12), max_size=6)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)) | st.text(max_size=8),
       items=_ITEMS)
def test_any_argv_is_a_scenario_or_a_usage_error(kind, items):
    # Parse and validate only: nothing here simulates, so random sizes
    # cannot blow the budget.  main() turns a ConfigError into exit 2.
    try:
        point = point_scenario(kind, items)
    except ConfigError:
        return
    assert point.kind == kind
    assert check(kind, point.params) == point


def test_point_is_the_harness_point(capsys):
    # One fig06 fast point from the shell: same scenario key, and
    # metrics bit-identical to the harness's run of it.
    point = get_experiment("fig06").build(FAST).points[-1]
    params = [f"{name}={json.dumps(value)}"
              for name, value in point.params.items()]
    assert main(["point", point.kind, *params, "--no-cache"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert check(out["kind"], out["params"]).key == point.key
    want = Runner().run([point])[point]
    assert [v.hex() for v in out["metrics"].values()] == [
        v.hex() for v in want.values()]
    assert out["metrics"] == want


def test_point_reads_and_writes_the_point_cache(tmp_path, capsys):
    argv = ["point", "table1", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert list(tmp_path.rglob("*.json"))
    assert main(argv) == 0
    assert capsys.readouterr().out == first
