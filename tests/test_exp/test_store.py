"""Result artifacts and the regression-compare gate."""

import json

import pytest

from repro.exp.store import (
    RESULT_SCHEMA,
    ResultStore,
    compare_results,
    load_result,
)


def artifact(series, higher_is_better=True, experiment="fig06"):
    return {
        "schema": RESULT_SCHEMA,
        "experiment": experiment,
        "metric": {"name": "speedup", "unit": "x",
                   "higher_is_better": higher_is_better},
        "series": series,
    }


def test_one_write_lands_one_artifact(tmp_path, monkeypatch):
    """A run killed between two writes left a results file and a
    ``BENCH_`` file from different runs; one write now lands one file."""
    monkeypatch.chdir(tmp_path)
    path = ResultStore(results_dir=tmp_path / "results").write(
        "fig06", {"series": {"T=2": {"65536": 1.5}}, "sizes": [65536]},
        profile="fast", fingerprint="fp",
        metric={"name": "speedup", "unit": "x", "higher_is_better": True},
        stats={"executed": 1}, elapsed=0.5)
    assert path == tmp_path / "results" / "fig06.json"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]

    doc = load_result(path)
    assert doc["schema"] == RESULT_SCHEMA
    assert doc["experiment"] == "fig06"
    assert doc["profile"] == "fast"
    assert doc["code_fingerprint"] == "fp"
    assert doc["series"] == {"T=2": {"65536": 1.5}}
    assert doc["run"] == {"executed": 1}
    assert doc["elapsed_s"] == 0.5
    assert doc["extra"] == {"sizes": [65536]}


def test_load_result_rejects_foreign_schema(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"schema": "other/v1"}), encoding="utf-8")
    with pytest.raises(ValueError, match="repro-bench/v1"):
        load_result(path)


def test_self_compare_is_clean():
    doc = artifact({"T=2": {"65536": 1.5, "262144": 2.0}})
    report = compare_results(doc, doc)
    assert report.ok
    assert report.unchanged == 2
    assert not report.regressions and not report.improvements
    assert "OK" in report.format()


def test_regression_direction_higher_is_better():
    old = artifact({"T=2": {"65536": 2.0}})
    worse = artifact({"T=2": {"65536": 1.0}})
    better = artifact({"T=2": {"65536": 4.0}})
    assert not compare_results(worse, old).ok
    report = compare_results(better, old)
    assert report.ok and len(report.improvements) == 1


def test_regression_direction_lower_is_better():
    old = artifact({"time": {"65536": 1.0}}, higher_is_better=False)
    slower = artifact({"time": {"65536": 2.0}}, higher_is_better=False)
    faster = artifact({"time": {"65536": 0.5}}, higher_is_better=False)
    assert not compare_results(slower, old).ok
    assert compare_results(faster, old).ok


def test_threshold_boundary_inclusive():
    old = artifact({"T=2": {"65536": 1.0}})
    at_threshold = artifact({"T=2": {"65536": 0.9}})
    past_threshold = artifact({"T=2": {"65536": 0.89}})
    assert compare_results(at_threshold, old, threshold=0.10).ok
    report = compare_results(past_threshold, old, threshold=0.10)
    assert len(report.regressions) == 1
    assert report.regressions[0].change == pytest.approx(-0.11)
    assert "REGRESSION" in report.format()
    assert "FAIL" in report.format()


def test_missing_series_and_keys_fail():
    old = artifact({"T=2": {"65536": 1.0, "262144": 2.0},
                    "T=8": {"65536": 1.0}})
    new = artifact({"T=2": {"65536": 1.0}})
    report = compare_results(new, old)
    assert not report.ok
    assert "T=8" in report.missing
    assert "T=2 @ 262144" in report.missing


def test_new_coverage_is_not_a_regression():
    old = artifact({"T=2": {"65536": 1.0}})
    new = artifact({"T=2": {"65536": 1.0, "262144": 2.0},
                    "T=8": {"65536": 1.0}})
    assert compare_results(new, old).ok


def test_scalar_series_values_compare():
    old = artifact({"early fraction": 0.5})
    worse = artifact({"early fraction": 0.2})
    assert compare_results(old, old).ok
    assert not compare_results(worse, old).ok


def test_an_artifact_longer_than_one_read_round_trips(tmp_path):
    """``repro.atomic.read_json`` reads a file a few hundred bytes long
    in one call; a results file of many KiB takes several."""
    series = {f"T={t}": {str(2 ** k): k / 3 for k in range(10, 30)}
              for t in range(16)}
    path = ResultStore(tmp_path).write(
        "big", {"series": series}, profile="fast", fingerprint="fp",
        metric={})
    assert path.stat().st_size > 2 * 4096
    assert load_result(path)["series"] == series


@pytest.mark.parametrize("failure", ["disk-full", "target-is-a-directory"])
def test_a_failed_write_leaves_no_temp_file(tmp_path, monkeypatch,
                                            failure):
    store = ResultStore(tmp_path)
    if failure == "disk-full":
        import os

        def write(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "write", write)
    else:
        (tmp_path / "row.json").mkdir()
    with pytest.raises(OSError):
        store.write("row", {"series": {}}, profile="fast",
                    fingerprint="fp", metric={})
    assert not list(tmp_path.glob("*.tmp"))
