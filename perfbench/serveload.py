"""serve_mixed: a real wall-clock closed loop, one client, against
``TuningService`` + ``ShardedStore``.

The client sends its next request only after the previous one returned.
Keys are Zipf-distributed over a working set 8x the cache; 90 % of requests
are ``get`` and 10 % are compare-and-swap ``commit`` carrying the version
the client last saw.  Every request is timed with ``perf_counter_ns`` and
checked: a ``get`` must return exactly the plan and version this client last
committed, and a single-client CAS must never conflict.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from time import perf_counter_ns


def _percentile(sorted_ns: list, q: float) -> float:
    """Nearest-rank percentile of pre-sorted nanosecond samples, in µs."""
    return sorted_ns[min(len(sorted_ns) - 1, int(len(sorted_ns) * q))] / 1e3


class ServeLoad:
    """Store, keys and request streams for one child; ``setup`` then ``run``."""

    def __init__(self, args: dict, seed: int, root: str):
        import numpy as np

        from repro.autotune.policy import PlanChoice
        from repro.autotune.store import workload_key
        from repro.serve.service import TuningService

        self._choice_cls = PlanChoice
        self.service = TuningService(root, n_shards=args["n_shards"],
                                     cache_capacity=args["cache_capacity"])
        n = args["n_keys"]
        self.keys = [workload_key(2 ** (k % 6 + 3), 2 ** (k % 6 + 3) * 4096,
                                  f"perfbench-{k // 6}",
                                  plan_space="perfbench/v1")
                     for k in range(n)]
        self.version = [0] * n
        self.current = [None] * n
        rng = np.random.default_rng(seed)
        weights = np.arange(1, n + 1, dtype=float) ** -args["zipf_s"]
        weights /= weights.sum()

        def stream(count):
            keys = rng.choice(n, size=count, p=weights).tolist()
            commits = (rng.random(count) < args["p_commit"]).tolist()
            return list(zip(keys, commits))

        self._warm = stream(args["warm_requests"])
        self._rounds = [stream(args["requests"])
                        for _ in range(args["rounds"])]
        self.failed = 0

    def _choice(self, k: int, version: int):
        return self._choice_cls(n_transport=2 ** ((k + version) % 4 + 1),
                                n_qps=(k + version) % 5 + 1)

    def _drive(self, requests) -> dict:
        """Send ``requests`` back to back; return the latency samples."""
        service, keys = self.service, self.keys
        version, current = self.version, self.current
        cache = service.cache
        hit_ns, miss_ns, commit_ns = [], [], []
        hits_seen = cache.hits
        clock = perf_counter_ns
        start = clock()
        for k, is_commit in requests:
            if is_commit:
                choice = self._choice(k, version[k])
                t0 = clock()
                result = service.commit(keys[k], choice,
                                        expect_version=version[k])
                commit_ns.append(clock() - t0)
                if not result.committed:
                    self.failed += 1
                version[k] = result.entry.version
                current[k] = result.entry.choice
            else:
                t0 = clock()
                entry = service.get(keys[k])
                dt = clock() - t0
                # The cache's own counter tells hit from miss, read outside
                # the timed interval.
                if cache.hits != hits_seen:
                    hits_seen = cache.hits
                    hit_ns.append(dt)
                else:
                    miss_ns.append(dt)
                if (entry is None or entry.version != version[k]
                        or entry.choice != current[k]):
                    self.failed += 1
        wall_s = (clock() - start) / 1e9
        return {"wall_s": wall_s, "hit_ns": hit_ns, "miss_ns": miss_ns,
                "commit_ns": commit_ns}

    def setup(self) -> None:
        """Preload every key, then warm the cache with untimed traffic."""
        for k, key in enumerate(self.keys):
            result = self.service.commit(key, self._choice(k, 0),
                                         expect_version=0)
            self.version[k] = result.entry.version
            self.current[k] = result.entry.choice
        self._drive(self._warm)
        self.failed = 0

    def run(self, spans) -> dict:
        """The timed rounds, each its own span; percentiles are taken over
        the whole pass, which leaves 36 commits beyond the p99."""
        round_s, hit_ns, miss_ns, commit_ns = [], [], [], []
        for i, requests in enumerate(self._rounds):
            with spans.span(f"serve.round{i}"):
                raw = self._drive(requests)
            round_s.append(raw["wall_s"])
            hit_ns += raw["hit_ns"]
            miss_ns += raw["miss_ns"]
            commit_ns += raw["commit_ns"]
        get_ns = sorted(hit_ns + miss_ns)
        commit_ns.sort()
        stats = self.service.stats()
        # What a seed fixes exactly: which requests hit, how many commits
        # landed, and every key's final version.
        exact = {"hits": stats["cache"]["hits"],
                 "misses": stats["cache"]["misses"],
                 "commits": stats["commits"], "conflicts": stats["conflicts"],
                 "versions": self.version}
        return {
            "wall_s": sum(round_s),
            "failed": self.failed,
            "get_p50_us": _percentile(get_ns, 0.50),
            "get_p99_us": _percentile(get_ns, 0.99),
            "commit_p50_us": _percentile(commit_ns, 0.50),
            "commit_p99_us": _percentile(commit_ns, 0.99),
            "get_hit_p50_us": statistics.median(hit_ns) / 1e3,
            "get_miss_p50_us": statistics.median(miss_ns) / 1e3,
            "cache_hit_ratio": len(hit_ns) / len(get_ns),
            "commits": len(commit_ns),
            "conflicts": stats["conflicts"],
            "evicted_entries": stats["evicted_entries"],
            "digest": hashlib.sha256(
                json.dumps(exact, sort_keys=True).encode()).hexdigest()}
