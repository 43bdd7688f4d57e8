"""Runner semantics: dedup, stats, cache resume, invalidation."""

import pytest

from repro.exp.cache import ResultCache
from repro.exp.runner import Runner
from repro.exp.spec import Scenario

CHEAP = dict(n_user=4, total_bytes=4096, module=["persist"],
             iterations=2, warmup=1)


def cheap_point(**overrides):
    params = dict(CHEAP)
    params.update(overrides)
    return Scenario.make("overhead", **params)


def test_rejects_zero_jobs():
    with pytest.raises(ValueError):
        Runner(jobs=0)


def test_duplicates_executed_once():
    a = cheap_point()
    b = cheap_point(total_bytes=8192)
    runner = Runner(jobs=1)
    results = runner.run([a, b, a, a])
    stats = runner.last_stats
    assert stats.points == 4
    assert stats.unique == 2
    assert stats.executed == 2
    assert set(results) == {a, b}
    assert results[a]["mean_time"] > 0


def test_resume_is_pure_cache_read(tmp_path):
    points = [cheap_point(), cheap_point(total_bytes=8192)]
    cache = ResultCache(tmp_path)
    first = Runner(jobs=1, cache=cache, fingerprint="fp").run(points)

    resumed_runner = Runner(jobs=1, cache=cache, fingerprint="fp")
    resumed = resumed_runner.run(points)
    stats = resumed_runner.last_stats
    assert stats.cache_hits == 2
    assert stats.executed == 0
    assert resumed == first


def test_partial_cache_resumes_only_missing(tmp_path):
    a, b = cheap_point(), cheap_point(total_bytes=8192)
    cache = ResultCache(tmp_path)
    Runner(jobs=1, cache=cache, fingerprint="fp").run([a])

    runner = Runner(jobs=1, cache=cache, fingerprint="fp")
    runner.run([a, b])
    assert runner.last_stats.cache_hits == 1
    assert runner.last_stats.executed == 1


def test_fingerprint_change_re_executes(tmp_path):
    point = cheap_point()
    cache = ResultCache(tmp_path)
    Runner(jobs=1, cache=cache, fingerprint="code-v1").run([point])

    runner = Runner(jobs=1, cache=cache, fingerprint="code-v2")
    runner.run([point])
    assert runner.last_stats.cache_hits == 0
    assert runner.last_stats.executed == 1


def test_empty_cache_uses_real_fingerprint(tmp_path):
    """Regression: an empty ResultCache is falsy (len == 0); the runner
    must still key it by the code fingerprint, not the '' fallback, or
    the first write and every later read disagree and resume never hits."""
    cache = ResultCache(tmp_path)
    assert len(cache) == 0
    runner = Runner(jobs=1, cache=cache)
    assert runner.fingerprint != ""


def test_progress_callback_sees_runs():
    notes = []
    runner = Runner(jobs=1, progress=notes.append)
    runner.run([cheap_point()])
    assert any("run 1/1" in note for note in notes)
