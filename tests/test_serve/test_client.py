"""Client failure discipline: retries, breaker, graceful degradation."""

from repro.autotune import AdaptiveAggregator, PlanStore, build_autotuner
from repro.autotune import workload_key
from repro.autotune.policy import PlanChoice
from repro.engine.watchdog import CLOSED, OPEN
from repro.serve import (
    FlakyTransport,
    ServeClient,
    TuningService,
)
from repro.serve.client import (
    BACKOFF_BASE,
    BACKOFF_FACTOR,
    BREAKER_THRESHOLD,
    COOLDOWN_CALLS,
)


def key():
    return workload_key(32, 32 * 4096, "cfg", plan_space="space-1")


def choice(t=4):
    return PlanChoice(n_transport=t, n_qps=2, delta=None)


def make(tmp_path, **flaky):
    svc = TuningService(tmp_path, n_shards=2)
    return svc, FlakyTransport(svc, **flaky) if flaky else svc


def test_client_speaks_the_store_protocol(tmp_path):
    svc, transport = make(tmp_path)
    client = ServeClient(transport)
    assert isinstance(client, PlanStore)
    assert client.get(key()) is None
    client.put(key(), choice(8), meta={"rounds_observed": 3})
    assert client.get(key()) == choice(8)
    assert svc.store.commits == 1


def test_client_plugs_into_build_autotuner(tmp_path):
    _, transport = make(tmp_path)
    client = ServeClient(transport)
    agg = build_autotuner({"policy": "bandit", "counts": [1, 4]},
                          store=client)
    assert isinstance(agg, AdaptiveAggregator)
    assert agg.store is client


def test_retry_rides_out_transient_failures(tmp_path):
    svc, transport = make(tmp_path, p_fail=0.5, seed=3)
    client = ServeClient(transport, retries=8)
    client.put(key(), choice())
    assert client.get(key()) == choice()
    assert client.transport_errors > 0       # retries actually happened
    assert client.fallbacks == 0
    assert client.breaker.state is CLOSED


def test_outage_trips_breaker_then_degrades(tmp_path):
    svc, transport = make(tmp_path, outage_after=0)
    client = ServeClient(transport, retries=1)
    for _ in range(BREAKER_THRESHOLD):
        assert client.get(key()) is None     # exhausted retries
    assert client.breaker.state is OPEN
    calls_at_trip = transport.calls
    # While OPEN (and short of the cooldown) the client doesn't even
    # touch the transport.
    for _ in range((COOLDOWN_CALLS - 1) // 2):
        assert client.get(key()) is None
        assert client.put(key(), choice()) is None
    assert transport.calls == calls_at_trip
    assert client.fallbacks >= 3
    assert client.dropped_puts >= 1


def test_breaker_probes_after_cooldown(tmp_path):
    svc, transport = make(tmp_path, outage_after=1)
    client = ServeClient(transport, retries=1)
    client.put(key(), choice())              # lands before the outage
    for _ in range(BREAKER_THRESHOLD):
        client.get(key())                    # trip the breaker
    assert client.breaker.state is OPEN
    # Heal the service, then let cooldown skip calls until probation.
    transport.outage_after = None
    results = [client.get(key()) for _ in range(COOLDOWN_CALLS)]
    assert results[:-1] == [None] * (COOLDOWN_CALLS - 1)
    assert results[-1] == choice()           # the probe reconnected
    assert client.breaker.state is CLOSED


def test_backoff_uses_injected_sleep(tmp_path):
    svc, transport = make(tmp_path, outage_after=0)
    delays = []
    client = ServeClient(transport, retries=3, sleep=delays.append)
    client.get(key())
    assert delays == [BACKOFF_BASE, BACKOFF_BASE * BACKOFF_FACTOR,
                      BACKOFF_BASE * BACKOFF_FACTOR ** 2]


def test_versioned_commit_passes_cas_through(tmp_path):
    svc, transport = make(tmp_path)
    client = ServeClient(transport)
    first = client.commit(key(), choice(4))
    assert first.committed and first.entry.version == 1
    stale = client.commit(key(), choice(8), expect_version=0)
    assert stale is not None and not stale.committed
    fresh = client.commit(key(), choice(8),
                          expect_version=first.entry.version)
    assert fresh.committed and fresh.entry.version == 2


def test_stats_shape(tmp_path):
    _, transport = make(tmp_path)
    client = ServeClient(transport)
    stats = client.stats()
    assert stats["breaker_state"] == CLOSED
    assert stats["fallbacks"] == 0
