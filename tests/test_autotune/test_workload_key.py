"""What ``WorkloadKey`` and the entry writer promise (ISSUE 22).

* the entry text is ``json.dumps(payload, indent=2, sort_keys=True)``
  for *any* JSON value, inside the string builder's exact-type set and
  outside it (where it hands over to ``json``);
* a ``WorkloadKey`` is a value: no mutator works, its digest is the
  digest of the plain dict it equals, and it survives pickle, deepcopy
  and ``json``;
* a fixed request script leaves the same bytes on disk as it did at the
  parent commit.
"""

import copy
import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import TuningStore, workload_key
from repro.autotune.policy import PlanChoice
from repro.autotune.store import WorkloadKey, _encode_entry, entry_digest
from repro.serve import TuningService

# -- (a) the entry encoder ----------------------------------------------------

SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e-7, 1e16, 1e22, 5e-324, 2 ** 63, -2 ** 63]),
    st.text(),  # any code point: non-ASCII, controls, lone surrogates
    st.sampled_from(["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "δ-timer",
                     "\U0001f600", "\ud800"]))
STR_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(["", "\n", "δ"]))
# Keys json accepts that are not str; one kind per dict, since sort_keys
# refuses to order a str against an int.
ODD_KEYS = st.one_of(st.integers(-5, 5), st.booleans(),
                     st.floats(allow_nan=False, width=16))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.dictionaries(STR_KEYS, inner, max_size=4),
        st.dictionaries(ODD_KEYS, inner, max_size=3),
        st.lists(inner, max_size=4),
        st.builds(tuple, st.lists(inner, max_size=3))),
    max_leaves=25)


@given(JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_entry_text_is_json_dumps_indent_2_sorted(value):
    assert _encode_entry(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    {}, {"a": {}}, {"a": []}, {"a": [{}], "b": {"c": [[], {"d": ()}]}},
    {"k": WorkloadKey({"z": 1, "a": WorkloadKey()})},
    {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
    {"big": 2 ** 200, "neg0": -0.0, "tiny": 1e-7, "t": True, "n": None},
    {1: "int key", 2.5: "float key"}, {None: 2}, {True: "t", False: "f"},
    {"deep": {"er": {"est": {"list": [1, {"x": [2, {"y": "δ"}]}]}}}},
])
def test_entry_text_on_the_edges_of_the_fast_set(value):
    assert _encode_entry(value) == json.dumps(value, indent=2, sort_keys=True)


def test_values_json_rejects_are_still_rejected():
    class Str(str):
        pass

    # A subclass is outside the exact-type set and goes to json, which
    # encodes it as what it subclasses.
    assert _encode_entry({"s": Str("x"), Str("k"): 1}) == json.dumps(
        {"s": "x", "k": 1}, indent=2, sort_keys=True)
    for bad in ({"bad": {1, 2}}, {"a": {"b": object()}}, {("t",): 1},
                {"a": 1, 2: "mixed"}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            _encode_entry(bad)


# -- (b) keys are values ------------------------------------------------------

KEY_VALUES = st.one_of(
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, None, "", "1"]),
    st.integers(-2 ** 65, 2 ** 65), st.floats(allow_nan=False),
    st.text(max_size=8))
WORKLOAD_KEYS = st.builds(
    lambda n, size, tag, extra: workload_key(n, size, tag, **extra),
    st.integers(1, 512), st.integers(0, 2 ** 40), st.text(max_size=8),
    st.dictionaries(
        st.text("abcdefgh_", min_size=1, max_size=6).filter(
            lambda name: name not in ("n_user", "message_size",
                                      "config_tag")),
        KEY_VALUES, max_size=4))

MUTATORS = [
    lambda k: k.__setitem__("n_user", 1),
    lambda k: k.__setitem__("new", 1),
    lambda k: k.__delitem__("n_user"),
    lambda k: k.__ior__({"n_user": 1}),
    lambda k: k.update({"n_user": 1}),
    lambda k: k.update(n_user=1),
    lambda k: k.pop("n_user"),
    lambda k: k.pop("absent", None),
    lambda k: k.popitem(),
    lambda k: k.setdefault("new", 1),
    lambda k: k.setdefault("n_user"),
    lambda k: k.clear(),
]


@pytest.mark.parametrize("digest_first", [False, True])
@pytest.mark.parametrize("mutate", MUTATORS)
def test_every_mutator_raises_and_changes_nothing(mutate, digest_first):
    k = workload_key(32, 131072, "niagara", plan_space="s")
    plain = dict(k)
    if digest_first:
        assert entry_digest(k) == "b68bf74561edb00dda0f765d"
    with pytest.raises(TypeError, match="immutable"):
        mutate(k)
    assert k == plain and list(k.items()) == list(plain.items())
    assert entry_digest(k) == "b68bf74561edb00dda0f765d"


def test_a_key_is_a_dict_to_everything_that_reads_one():
    k = workload_key(8, 4096, "t", plan_space="p", compute=0.1)
    plain = {"n_user": 8, "message_size": 4096, "config": "t",
             "plan_space": "p", "compute": 0.1}
    assert type(k) is WorkloadKey and isinstance(k, dict)
    assert k == plain and plain == k and not k != plain
    assert k["n_user"] == 8 and k.get("absent") is None and "config" in k
    for unfrozen in (dict(k), {**k}, k.copy(), k | {}, {} | k):
        assert type(unfrozen) is dict and unfrozen == plain
    assert json.dumps(k, sort_keys=True) == json.dumps(plain, sort_keys=True)
    payload = {"key": k, "meta": {"key": k}}
    assert json.dumps(payload, indent=2, sort_keys=True) == json.dumps(
        {"key": plain, "meta": {"key": plain}}, indent=2, sort_keys=True)
    assert _encode_entry(payload) == json.dumps(payload, indent=2,
                                                sort_keys=True)


@given(WORKLOAD_KEYS)
@settings(max_examples=200, deadline=None)
def test_digest_is_the_plain_dicts_and_survives_copies(k):
    assert type(k) is WorkloadKey
    digest = entry_digest(dict(k))
    assert entry_digest(k) == digest
    assert entry_digest(k) == digest  # the remembered one
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(k, protocol))
        assert type(clone) is WorkloadKey and clone == k
        assert list(clone.items()) == list(k.items())
        assert entry_digest(clone) == digest
    for clone in (copy.deepcopy(k), copy.copy(k)):
        assert type(clone) is WorkloadKey and clone == k and clone is not k
        assert entry_digest(clone) == digest


def test_equal_keys_that_canonicalise_differently_keep_their_own_digest():
    """``1 == 1.0 == True`` and ``0.0 == -0.0``, so these keys compare
    equal — and each names a different entry file, frozen or not."""
    variants = [workload_key(8, 4096, "t", x=x)
                for x in (1, 1.0, True, 0.0, -0.0)]
    assert variants[0] == variants[1] == variants[2]
    assert variants[3] == variants[4]
    digests = [entry_digest(k) for k in variants]
    assert len(set(digests)) == 5
    assert digests == [entry_digest(dict(k)) for k in variants]


def test_a_key_holding_a_container_is_not_remembered():
    """The freeze is one level deep; a list inside the key stays the
    caller's to mutate, so such a key is digested per request like a
    plain dict."""
    k = workload_key(8, 4096, "t", grid=[4, 4])
    before = entry_digest(k)
    assert before == entry_digest({**k})
    k["grid"].append(4)
    assert entry_digest(k) == entry_digest({**k}) != before


def test_bypassing_the_freeze_is_the_callers_bug():
    """As ``object.__setattr__`` on a frozen dataclass: possible, and
    the remembered digest then names the key as it was."""
    k = workload_key(8, 4096, "t")
    before = entry_digest(k)
    dict.__setitem__(k, "n_user", 16)
    assert entry_digest(k) == before != entry_digest(dict(k))


# -- (d) the bytes a request script leaves behind -----------------------------

#: sha256 over every ``*.json`` under the root after ``_script``; cut
#: from commit 347d18d (plain-dict keys, ``json``'s indent encoder,
#: recency recorded for every request).
SCRIPT_SHA256 = (
    "73dee0c9c1594f240af54bf07bcf67fb8252d173216223da0bd1e6962c8d1136")


def _script(root):
    rng = random.Random(22)
    service = TuningService(root / "served", n_shards=4, cache_capacity=16,
                            negative_ttl=8, max_entries_per_shard=3)
    flat = TuningStore(root / "flat")
    keys = [workload_key(2 ** (i % 5 + 2), 2 ** (i % 5 + 2) * 4096,
                         ("niagara", "δ-cluster", "")[i % 3],
                         plan_space=f"space-{i % 2}", slot=i)
            for i in range(40)]
    for _ in range(500):
        k = keys[min(int(rng.paretovariate(0.8)) - 1, len(keys) - 1)]
        plan = PlanChoice(2 ** rng.randrange(1, 3), rng.randrange(1, 4),
                          delta=rng.choice([None, 0.0, 3.5e-05, 1e-07]))
        meta = {"rounds_observed": rng.randrange(4),
                "mean_cost": rng.random() * 1e-3}
        if rng.random() < 0.2:
            meta["history"] = [rng.randrange(9), {"at": rng.random()}, []]
        op = rng.random()
        if op < 0.55:
            service.get(k)
        elif op < 0.75:
            service.commit(k, plan, meta=meta)
        elif op < 0.90:
            seen = service.get(k)
            service.commit(k, plan, meta=meta, expect_version=(
                seen.version if seen is not None and rng.random() < 0.8
                else 7))
        elif op < 0.95:
            flat.put(k, plan, meta)
        else:
            service.store.delete(k)
            service.cache.invalidate(entry_digest(k))
    return service


def test_a_request_script_leaves_the_parents_bytes(tmp_path):
    service = _script(tmp_path)
    assert service.evicted_entries > 0 and service.store.conflicts > 0
    files = sorted(tmp_path.rglob("*.json"))
    assert len(files) == 17
    sha = hashlib.sha256()
    for path in files:
        sha.update(str(path.relative_to(tmp_path)).encode() + b"\0")
        sha.update(path.read_bytes() + b"\0")
    assert sha.hexdigest() == SCRIPT_SHA256
    assert not list(tmp_path.rglob("*.tmp"))
