"""The client is the store protocol over the tuning service."""

from repro.autotune import AdaptiveAggregator, PlanStore, build_autotuner
from repro.autotune import workload_key
from repro.autotune.policy import PlanChoice
from repro.serve import ServeClient, TuningService


def key():
    return workload_key(32, 32 * 4096, "cfg", plan_space="space-1")


def choice(t=4):
    return PlanChoice(n_transport=t, n_qps=2, delta=None)


def test_client_speaks_the_store_protocol(tmp_path):
    svc = TuningService(tmp_path, n_shards=2)
    client = ServeClient(svc)
    assert isinstance(client, PlanStore)
    assert client.get(key()) is None
    client.put(key(), choice(8), meta={"rounds_observed": 3})
    assert client.get(key()) == choice(8)
    assert svc.store.commits == 1


def test_client_plugs_into_build_autotuner(tmp_path):
    client = ServeClient(TuningService(tmp_path, n_shards=2))
    agg = build_autotuner({"policy": "bandit", "counts": [1, 4]},
                          store=client)
    assert isinstance(agg, AdaptiveAggregator)
    assert agg.store is client


def test_reads_hit_the_service_cache_and_puts_move_the_version(tmp_path):
    svc = TuningService(tmp_path, n_shards=2)
    client = ServeClient(svc)
    assert client.put(key(), choice(4)).entry.version == 1
    hits = svc.cache.hits
    assert client.get(key()) == client.get(key()) == choice(4)
    assert svc.cache.hits == hits + 2
    assert client.put(key(), choice(8)).entry.version == 2
    assert svc.get(key()).version == 2
    assert client.get(key()) == choice(8)
