"""Scenario hashing, canonical encoding, grids and dedup."""

import collections
import enum
import json
import types
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune.store import entry_digest, workload_key
from repro.exp.spec import Scenario, canonical, dedup, grid


def test_canonical_is_order_insensitive():
    assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})


def test_canonical_normalizes_tuples_to_lists():
    assert (canonical({"sizes": (1, 2, 3)})
            == canonical({"sizes": [1, 2, 3]}))


def test_canonical_rejects_live_objects():
    class Thing:
        pass

    with pytest.raises(TypeError, match="not\\s+JSON-safe"):
        canonical({"module": Thing()})


def test_scenarios_with_equal_params_are_equal_and_hash_equal():
    a = Scenario.make("overhead", n_user=32, total_bytes=4096)
    b = Scenario.make("overhead", total_bytes=4096, n_user=32)
    assert a == b
    assert hash(a) == hash(b)
    assert a.digest() == b.digest()


def test_params_round_trip():
    point = Scenario.make("perceived", module=["ploggp", {"delay": 0.004}],
                          noise_fraction=0.04)
    assert point.params == {"module": ["ploggp", {"delay": 0.004}],
                            "noise_fraction": 0.04}
    assert point.as_dict()["kind"] == "perceived"


def test_digest_depends_on_kind_params_and_fingerprint():
    a = Scenario.make("overhead", n_user=32)
    assert a.digest() != Scenario.make("perceived", n_user=32).digest()
    assert a.digest() != Scenario.make("overhead", n_user=16).digest()
    assert a.digest("code-v1") != a.digest("code-v2")
    assert a.digest("code-v1") == a.digest("code-v1")


def test_float_params_round_trip_bit_exactly():
    value = 0.1 + 0.2  # not representable prettily
    point = Scenario.make("overhead", compute=value)
    assert point.params["compute"].hex() == value.hex()


def test_grid_is_cartesian_product_in_axis_order():
    points = grid("overhead", {"n_user": 32},
                  total_bytes=[1, 2], module=[["persist"], ["ploggp"]])
    assert len(points) == 4
    assert points[0].params == {"n_user": 32, "total_bytes": 1,
                                "module": ["persist"]}
    # Last axis varies fastest.
    assert points[1].params["module"] == ["ploggp"]
    assert points[2].params["total_bytes"] == 2


def test_dedup_keeps_first_seen_order():
    a = Scenario.make("overhead", n_user=1)
    b = Scenario.make("overhead", n_user=2)
    assert dedup([a, b, a, b, a]) == [a, b]


# -- identity pins (cut from the code before the request-budget rewrite) ----
#
# ``canonical`` text is hashed into every result-cache key and, through
# ``entry_digest``, into every tuning-store file name: a faster encoder
# must produce the same characters for every input it accepts and the
# same ``TypeError`` for every input it rejects.


class Tag(str):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


PINNED = [
    (workload_key(32, 32 * 4096, "niagara", plan_space="space-1"),
     '{"config":"niagara","message_size":131072,"n_user":32,'
     '"plan_space":"space-1"}', "4afd66fef026d4202cc34b82"),
    ({"module": ["ploggp", {"delay": 0.004, "qps": [1, 2]}],
      "noise": {"mean": 0.001, "frac": 0.04}},
     '{"module":["ploggp",{"delay":0.004,"qps":[1,2]}],'
     '"noise":{"frac":0.04,"mean":0.001}}', "760aab7c64b78767fb8a2c93"),
    ({"sizes": (1, 2, (3, 4))},
     '{"sizes":[1,2,[3,4]]}', "b63e8c7efd49520a377c49a5"),
    ({"sizes": [1, 2, [3, 4]]},
     '{"sizes":[1,2,[3,4]]}', "b63e8c7efd49520a377c49a5"),
    ({"on": True, "off": False, "none": None, "delta": 3.5e-05,
      "big": 1e22, "neg": -0.0, "int": -7},
     '{"big":1e+22,"delta":3.5e-05,"int":-7,"neg":-0.0,"none":null,'
     '"off":false,"on":true}', "920c18d2c203a9569081c51e"),
    # Keys go through str() *before* the encoder sees them, so None and
    # True are "None" and "True", not JSON's null/true.
    ({1: "a", 2.5: "b", None: "c", True: "d", (1, 2): "e"},
     '{"(1, 2)":"e","1":"d","2.5":"b","None":"c"}',
     "5f8d5babf12ce56a9fa59db5"),
    ({1: "int", "1": "str"}, '{"1":"str"}', "6669abf33cb805e5b899d91b"),
    (collections.OrderedDict(
        [("z", 1), ("a", collections.OrderedDict([("y", 2), ("b", 3)]))]),
     '{"a":{"b":3,"y":2},"z":1}', "10d6b907e503398713553768"),
    (types.MappingProxyType(
        {"b": 1, "a": types.MappingProxyType({"c": (1,)})}),
     '{"a":{"c":[1]},"b":1}', "300ad37a8208f850b14f259a"),
    ({"tag": Tag("hello"), Tag("k"): 1},
     '{"k":1,"tag":"hello"}', "b4c060eac30f2912215dff3e"),
    ({"level": Level.HIGH, "levels": [Level.LOW, Level.HIGH]},
     '{"level":7,"levels":[1,7]}', "2bb6860cddfb3ef4d2930ebf"),
    ({"x": np.float64(0.1) + np.float64(0.2), "y": np.float64(3.5e-05)},
     '{"x":0.30000000000000004,"y":3.5e-05}', "caa416734fe6f36b406b29a3"),
    ({"name": "δ-timer", "emoji": "\U0001f600", "ctl": "a\nb\"c\\"},
     '{"ctl":"a\\nb\\"c\\\\","emoji":"\\ud83d\\ude00",'
     '"name":"\\u03b4-timer"}', "b47bb57836cacb5063a2cdc5"),
    ({}, "{}", "44136fa355b3678a1146ad16"),
]


@pytest.mark.parametrize("key, text, digest", PINNED,
                         ids=[p[2][:8] for p in PINNED])
def test_canonical_text_and_entry_digest_are_pinned(key, text, digest):
    assert canonical(key) == text
    assert entry_digest(key) == digest


@pytest.mark.parametrize("bad, shown", [
    ({"s": {1, 2}}, "{1, 2} (set)"),
    ({"b": b"x"}, "b'x' (bytes)"),
    ({"n": np.int64(3)}, "(int64)"),
    ({"k": [1, {"deep": {2}}]}, "{2} (set)"),
    ({"o": object()}, "(object)"),
], ids=["set", "bytes", "np.int64", "nested-set", "object"])
def test_rejected_values_raise_the_same_type_error(bad, shown):
    with pytest.raises(TypeError) as excinfo:
        canonical(bad)
    message = str(excinfo.value)
    assert message.startswith("scenario parameter ")
    assert shown in message
    assert message.endswith(
        "is not JSON-safe; describe objects declaratively "
        "(see repro.exp.modules)")
    with pytest.raises(TypeError):
        entry_digest(bad)


def reference_canonical(params):
    """The encoder as it stood before the fast paths: the reference the
    property below compares against (kept here on purpose)."""

    def jsonable(value):
        if isinstance(value, Mapping):
            return {str(k): jsonable(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [jsonable(v) for v in value]
        if isinstance(value, bool) or value is None or isinstance(value, str):
            return value
        if isinstance(value, (int, float)):
            return value
        raise TypeError(
            f"scenario parameter {value!r} ({type(value).__name__}) is not "
            "JSON-safe; describe objects declaratively "
            "(see repro.exp.modules)")

    return json.dumps(jsonable(params), sort_keys=True,
                      separators=(",", ":"))


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.builds(Tag, st.text(max_size=5)), st.sampled_from(list(Level)),
    st.floats(allow_nan=False).map(np.float64),
    # Rejected leaves: both encoders must refuse them alike.
    st.binary(max_size=3), st.frozensets(st.integers(), max_size=2),
    st.integers(-5, 5).map(np.int64))
_keys = st.one_of(st.text(max_size=6), st.integers(-9, 9), st.booleans(),
                  st.none(), st.floats(allow_nan=False, width=16))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_keys, inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=4).map(
            collections.OrderedDict),
        st.dictionaries(_keys, inner, max_size=4).map(
            types.MappingProxyType)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_keys, _values, max_size=5))
def test_canonical_matches_the_reference_encoder(params):
    try:
        expected = reference_canonical(params)
    except TypeError as exc:
        with pytest.raises(TypeError) as excinfo:
            canonical(params)
        assert str(excinfo.value) == str(exc)
    else:
        assert canonical(params) == expected
