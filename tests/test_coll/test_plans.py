"""Tests for per-edge transport-plan resolution."""

import pytest

import repro.coll
import repro.coll.plans
import repro.core.module
from repro.coll import edge_modules, ladder_modules, per_edge_autotuners
from repro.core import PLogGPAggregator
from repro.core.module import NativeSpec
from repro.model.tables import NIAGARA_LOGGP
from repro.mpi.channel_module import ChannelSpec
from repro.mpi.ladder import LadderSpec
from repro.mpi.persist_module import PersistSpec
from repro.units import ms


def test_spec_for_is_one_object_in_three_places():
    """The resolver lives beside ``NativeSpec`` (loaded by every point);
    the collective layer re-exports the same function."""
    assert repro.coll.spec_for is repro.core.module.spec_for
    assert repro.coll.plans.spec_for is repro.core.module.spec_for


def test_none_resolves_to_persist_everywhere():
    resolve = edge_modules(None)
    assert isinstance(resolve(0), PersistSpec)
    assert isinstance(resolve(7), PersistSpec)


def test_aggregator_resolves_to_shared_native_spec():
    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))
    resolve = edge_modules(agg)
    spec = resolve(3)
    assert isinstance(spec, NativeSpec)
    assert spec.aggregator is agg
    # Static aggregators are stateless: sharing across edges is fine.
    assert resolve(5).aggregator is agg


def test_module_spec_instance_is_reused():
    spec = PersistSpec()
    resolve = edge_modules(spec)
    assert resolve(1) is spec
    assert resolve(2) is spec


def test_zero_arg_factory_invoked_per_edge():
    made = []

    def factory():
        spec = PersistSpec()
        made.append(spec)
        return spec

    resolve = edge_modules(factory)
    a, b = resolve(1), resolve(2)
    assert a is not b
    assert made == [a, b]


def test_per_neighbor_callable_gets_the_neighbor():
    seen = []

    def module_for(neighbor):
        seen.append(neighbor)
        return None

    resolve = edge_modules(module_for)
    assert isinstance(resolve(4), PersistSpec)
    assert isinstance(resolve(9), PersistSpec)
    assert seen == [4, 9]


def test_garbage_module_raises():
    resolve = edge_modules(object())
    with pytest.raises(TypeError):
        resolve(0)


def _rung_names(spec):
    assert isinstance(spec, LadderSpec)
    return [rung.name for rung in spec.rungs]


def test_ladder_over_persist_folds_the_duplicate_top():
    build = ladder_modules(None)
    assert _rung_names(build(0)) == ["part_persist", "channels"]


def test_ladder_over_an_aggregator_prepends_native():
    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))
    ladder = ladder_modules(agg)(2)
    assert _rung_names(ladder) == ["native_verbs", "part_persist",
                                   "channels"]
    top = ladder.rungs[0]
    assert isinstance(top, NativeSpec) and top.aggregator is agg


def test_ladder_per_neighbor_callable_mixes_rungs():
    agg = PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))
    build = ladder_modules(lambda neighbor: agg if neighbor % 2 else None)
    assert _rung_names(build(1)) == ["native_verbs", "part_persist",
                                     "channels"]
    assert _rung_names(build(2)) == ["part_persist", "channels"]


def test_ladder_baseline_rungs_are_fresh_per_edge():
    build = ladder_modules(None)
    a, b = build(0), build(0)
    assert all(x is not y for x, y in zip(a.rungs, b.rungs))
    assert isinstance(a.rungs[0], PersistSpec)
    assert isinstance(a.rungs[1], ChannelSpec)


def test_per_edge_autotuners_are_independent():
    resolve = per_edge_autotuners({"policy": "bandit", "counts": [1, 2]})
    a, b = resolve(1), resolve(2)
    assert isinstance(a, NativeSpec) and isinstance(b, NativeSpec)
    assert a.aggregator is not b.aggregator


def test_per_edge_autotuners_store_keys_include_neighbor(tmp_path):
    from repro.autotune import TuningStore

    store = TuningStore(tmp_path / "store")
    resolve = per_edge_autotuners(
        {"policy": "bandit", "counts": [1, 2]}, store=store)
    assert resolve(3).aggregator.key_extra.get("neighbor") == 3
    assert resolve(5).aggregator.key_extra.get("neighbor") == 5
