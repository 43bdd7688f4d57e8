"""The plan service's per-request budget, and a model of what it serves.

Two guards for the request path ``TuningService`` → ``ShardedStore`` →
``TuningStore``:

* **the budget** — how many times one request may canonicalise its
  key, open an entry file, open a lock file and ``os.replace``.  The
  counts are taken by monkeypatching, so a refactor that quietly digests
  the key a second time (as the code did before this budget existed:
  two canonicalisations per miss and per commit) fails here, not in a
  benchmark;
* **the model** — a hypothesis state machine driving one service
  against a plain dict, with a second store handle and direct
  ``TuningStore`` reads as independent witnesses.
"""

import builtins
import io
import os
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.autotune import TuningStore, workload_key
from repro.autotune import store as store_mod
from repro.autotune.policy import PlanChoice
from repro.autotune.store import entry_digest
from repro.serve import ShardedStore, TuningService
from repro.serve import cache as cache_mod


def key(i=0, space="space-1"):
    return workload_key(32, 32 * 4096, f"cfg{i}", plan_space=space)


class Spend:
    """What one request spent: counted at the calls the budget names."""

    def __init__(self, monkeypatch):
        self.canonical = self.entry_opens = 0
        self.lock_opens = self.replaces = 0
        real_canonical = store_mod.canonical

        def canonical(params):
            self.canonical += 1
            return real_canonical(params)

        monkeypatch.setattr(store_mod, "canonical", canonical)
        # Every way of opening a file, so going back to open() or
        # Path.read_text() cannot hide an extra read.
        for module, name in ((os, "open"), (io, "open"),
                             (builtins, "open")):
            monkeypatch.setattr(module, name,
                                self._counting_open(getattr(module, name)))
        real_replace = os.replace

        def replace(src, dst, **kwargs):
            self.replaces += 1
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", replace)

    def _counting_open(self, real_open):
        def counting(path, *args, **kwargs):
            name = os.fspath(path) if not isinstance(path, int) else ""
            if name.endswith(".json"):
                self.entry_opens += 1
            elif name.endswith(".lock"):
                self.lock_opens += 1
            return real_open(path, *args, **kwargs)
        return counting

    def of(self, request) -> tuple:
        before = self.snapshot()
        request()
        return tuple(b - a for a, b in zip(before, self.snapshot()))

    def snapshot(self) -> tuple:
        return (self.canonical, self.entry_opens, self.lock_opens,
                self.replaces)


@pytest.fixture
def service(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_mod, "NEGATIVE_TTL", 4)
    service = TuningService(tmp_path, n_shards=2, cache_capacity=8)
    service.commit(key(0), PlanChoice(4, 1))
    return service


def within(spent, budget):
    return all(s <= b for s, b in zip(spent, budget))


def test_cache_hit_budget(service, monkeypatch):
    spend = Spend(monkeypatch)
    assert within(spend.of(lambda: service.get(key(0))), (1, 0, 0, 0))
    assert service.cache.hits == 1


def test_negative_hit_budget(service, monkeypatch):
    service.get(key(1))  # miss, remembered
    spend = Spend(monkeypatch)
    assert within(spend.of(lambda: service.get(key(1))), (1, 0, 0, 0))
    assert service.cache.negative_hits == 1


def test_miss_budget(service, monkeypatch):
    service.cache.clear()
    spend = Spend(monkeypatch)
    spent = spend.of(lambda: service.get(key(0)))
    assert within(spent, (1, 1, 0, 0)), spent
    assert spent[1] == 1  # a miss that read nothing is no miss
    spent = spend.of(lambda: service.get(key(1)))  # absent on disk
    assert within(spent, (1, 1, 0, 0)), spent


def test_commit_budget(service, monkeypatch):
    spend = Spend(monkeypatch)
    for request in (
            lambda: service.commit(key(0), PlanChoice(8, 1)),
            lambda: service.commit(key(0), PlanChoice(2, 1),
                                   expect_version=2),
            lambda: service.commit(key(1), PlanChoice(8, 1),
                                   meta={"rounds_observed": 3})):
        spent = spend.of(request)
        assert within(spent, (1, 1, 1, 1)), spent
        # The CAS re-read under the lock and the atomic replace are the
        # store's correctness: the budget is a ceiling, these a floor.
        assert spent[1:] == (1, 1, 1)
    assert service.store.commits == 4


def test_cas_conflict_budget(service, monkeypatch):
    spend = Spend(monkeypatch)
    results = []
    spent = spend.of(lambda: results.append(
        service.commit(key(0), PlanChoice(8, 1), expect_version=7)))
    assert not results[0].committed
    assert within(spent, (1, 1, 1, 0)), spent
    assert spent[1:3] == (1, 1)
    spent = spend.of(lambda: results.append(
        service.commit(key(2), PlanChoice(8, 1), expect_version=1)))
    assert not results[1].committed and results[1].entry.version == 0
    assert within(spent, (1, 1, 1, 0)), spent


def test_store_handle_requests_digest_once(tmp_path, monkeypatch):
    """The public ``ShardedStore`` calls keep the same budget."""
    store = ShardedStore(tmp_path, n_shards=2)
    spend = Spend(monkeypatch)
    assert spend.of(lambda: store.put(key(0), PlanChoice(4, 1))) == (
        1, 1, 1, 1)
    assert spend.of(lambda: store.read(key(0))) == (1, 1, 0, 0)
    assert spend.of(lambda: store.path_for(key(0))) == (1, 0, 0, 0)


def _one_of_each(service, flat, k):
    """Every kind of request that digests a key, all on ``k``."""
    store = service.store
    return [
        lambda: service.commit(k, PlanChoice(4, 1)),
        lambda: service.get(k),                       # cache hit
        lambda: service.cache.clear(),
        lambda: service.get(k),                       # miss, backend read
        lambda: service.commit(k, PlanChoice(8, 1), expect_version=1),
        lambda: service.commit(k, PlanChoice(2, 1), expect_version=7),
        lambda: store.read(k),
        lambda: store.put(k, PlanChoice(2, 2)),
        lambda: store.path_for(k),
        lambda: flat.put(k, PlanChoice(4, 2)),
        lambda: flat.get(k),
    ]


def test_a_workload_key_is_digested_once_for_all_its_requests(
        service, tmp_path, monkeypatch):
    flat = TuningStore(tmp_path / "flat")
    k = key(5)
    spend = Spend(monkeypatch)
    total = sum(spend.of(request)[0]
                for request in _one_of_each(service, flat, k))
    assert total == 1
    # A second handle on the same key value still pays nothing.
    assert spend.of(lambda: ShardedStore(service.store.root).read(k))[0] == 0
    # An equal key built again is another object: one more, once.
    again = key(5)
    assert [spend.of(lambda: service.get(again))[0] for _ in range(3)] == [
        1, 0, 0]


def test_a_plain_dict_is_digested_by_every_request(service, tmp_path,
                                                   monkeypatch):
    """docs/SERVE.md's rule 5 floor: a mutable dict is never remembered,
    so a caller that changes it between requests reaches the new entry."""
    flat = TuningStore(tmp_path / "flat")
    k = dict(key(5))
    spend = Spend(monkeypatch)
    requests = _one_of_each(service, flat, k)
    spent = [spend.of(request)[0] for request in requests]
    assert spent == [0 if i == 2 else 1 for i in range(len(requests))]
    service.commit(k, PlanChoice(4, 1))
    k["config"] = "cfg6"
    assert service.get(k) is None
    assert service.get(key(5)).choice == PlanChoice(4, 1)


# -- the model ---------------------------------------------------------------

PLANS = st.builds(PlanChoice,
                  n_transport=st.sampled_from([1, 2, 4, 8, 16]),
                  n_qps=st.integers(1, 4),
                  delta=st.one_of(st.none(), st.sampled_from([0.0, 3.5e-05])))
SPACES = ("space-1", "space-2")
KEYS = st.builds(key, st.integers(0, 4), st.sampled_from(SPACES))


class ServiceModel(RuleBasedStateMachine):
    """One ``TuningService`` against ``digest → (key, plan, version)``.

    The cache is smaller than the key set and the negative TTL is cut
    to a few ticks, so hits, evictions, negative hits and expiries all
    occur.
    """

    def __init__(self):
        super().__init__()
        self.model = {}

    @initialize()
    def open_service(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="serve-model-")
        self.root = self._tmp.name
        self._ttl, cache_mod.NEGATIVE_TTL = cache_mod.NEGATIVE_TTL, 3
        self.service = TuningService(self.root, n_shards=2,
                                     cache_capacity=2)
        self.other = None

    def teardown(self):
        cache_mod.NEGATIVE_TTL = self._ttl
        self._tmp.cleanup()

    def _expect(self, k):
        return self.model.get(entry_digest(k))

    @rule(k=KEYS)
    def get(self, k):
        entry = self.service.get(k)
        expected = self._expect(k)
        if expected is None:
            assert entry is None
        else:
            assert (entry.key, entry.choice, entry.version) == expected

    @rule(k=KEYS, plan=PLANS, rounds=st.integers(0, 9))
    def commit(self, k, plan, rounds):
        before = self._expect(k)
        version = before[2] if before else 0
        result = self.service.commit(k, plan,
                                     meta={"rounds_observed": rounds})
        assert result.committed
        assert result.entry.version == version + 1
        self.model[entry_digest(k)] = (k, plan, version + 1)

    @rule(k=KEYS, plan=PLANS)
    def cas_current(self, k, plan):
        before = self._expect(k)
        version = before[2] if before else 0
        result = self.service.commit(k, plan, expect_version=version)
        assert result.committed
        assert result.entry.version == version + 1
        self.model[entry_digest(k)] = (k, plan, version + 1)

    @rule(k=KEYS, plan=PLANS, behind=st.integers(1, 3))
    def cas_stale(self, k, plan, behind):
        before = self._expect(k)
        version = before[2] if before else 0
        commits = self.service.store.commits
        path = self.service.store.path_for(k)
        on_disk = path.read_bytes() if path.exists() else None
        result = self.service.commit(k, plan,
                                     expect_version=version + behind)
        assert not result.committed
        assert result.entry.version == version
        if before is not None:
            assert result.entry.choice == before[1]
        # A stale CAS never writes.
        assert self.service.store.commits == commits
        assert (path.read_bytes() if path.exists() else None) == on_disk

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_behind_the_service(self, data):
        """Another process deletes an entry; the service is told (its
        cache is write-through, not coherent, so an external writer
        invalidates — what ``_bound_shard`` does for its own victims)."""
        digest = data.draw(st.sampled_from(sorted(self.model)))
        k = self.model.pop(digest)[0]
        handle = self.other or self.service.store
        path = handle.path_for(k)
        assert handle._delete_path(path)
        assert not handle._delete_path(path)
        self.service.cache.invalidate(digest)

    @rule()
    def reopen_second_handle(self):
        self.other = ShardedStore(self.root)
        assert self.other.n_shards == 2

    @invariant()
    def witnesses_agree_with_the_model(self):
        store = self.service.store
        assert store.count() == len(self.model)
        handle = self.other or ShardedStore(self.root)
        for digest, (k, plan, version) in self.model.items():
            entry = handle.read(k)
            assert (entry.choice, entry.version) == (plan, version)
            shard_dir = store.shards[store.shard_of(k)].root
            assert TuningStore(shard_dir).get(k) == plan
        assert store.corrupt_entries == 0 == handle.corrupt_entries


TestServiceModel = ServiceModel.TestCase
TestServiceModel.settings = settings(max_examples=40,
                                     stateful_step_count=30, deadline=None)
