"""End-to-end tests for the `repro-bench bench` command group."""

import json

import pytest

from repro.cli import main
from repro.exp import RESULT_SCHEMA, experiment_names


def test_bench_list_names_every_experiment(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in experiment_names():
        assert name in out


def test_bench_list_points_adds_counts(capsys):
    assert main(["bench", "list", "--points"]) == 0
    out = capsys.readouterr().out
    assert "fast pts" in out
    assert "paper pts" in out


def test_bench_run_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "nope", "--no-store", "--no-cache"])
    assert exc.value.code == 2
    assert "unknown experiment(s): nope" in capsys.readouterr().err


def test_bench_run_writes_artifacts_and_caches(tmp_path, capsys):
    argv = ["bench", "run", "table1", "--profile", "fast", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--results-dir", str(tmp_path / "results"),
            "--bench-dir", str(tmp_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "== table1:" in out
    assert "[fast]" in out

    bench_path = tmp_path / "BENCH_table1.json"
    full_path = tmp_path / "results" / "table1.json"
    assert bench_path.exists() and full_path.exists()
    doc = json.loads(bench_path.read_text(encoding="utf-8"))
    assert doc["schema"] == RESULT_SCHEMA
    assert doc["experiment"] == "table1"

    # Re-run is a pure cache read.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 cached, 0 executed" in out


def test_bench_compare_gates_on_regression(tmp_path, capsys):
    argv = ["bench", "run", "table1", "--profile", "fast", "--quiet",
            "--no-cache", "--results-dir", str(tmp_path / "results"),
            "--bench-dir", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    artifact = tmp_path / "BENCH_table1.json"

    # Self-compare passes...
    assert main(["bench", "compare", str(artifact), str(artifact)]) == 0
    assert "OK" in capsys.readouterr().out

    # ...and a >10% drop on a higher-is-better metric fails.
    doc = json.loads(artifact.read_text(encoding="utf-8"))
    doc["metric"]["higher_is_better"] = True
    worse = {
        label: ({k: v * 0.5 if isinstance(v, (int, float)) else v
                 for k, v in values.items()}
                if isinstance(values, dict)
                else values * 0.5 if isinstance(values, (int, float))
                else values)
        for label, values in doc["series"].items()
    }
    regressed = tmp_path / "BENCH_table1_regressed.json"
    regressed.write_text(
        json.dumps(dict(doc, series=worse)), encoding="utf-8")
    assert main(["bench", "compare", str(regressed), str(artifact)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", ["0", "-2", "four"])
def test_bad_job_count_is_a_usage_error(jobs, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "table1", "--profile", "fast", "--jobs", jobs,
              "--no-store", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "four"])
def test_bad_repro_bench_jobs_is_a_usage_error(jobs, monkeypatch, tmp_path,
                                               capsys):
    monkeypatch.setenv("REPRO_BENCH_JOBS", jobs)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run", "table1", "--profile", "fast", "--no-store",
              "--no-cache", "--quiet"])
    assert exc.value.code == 2
    assert "REPRO_BENCH_JOBS" in capsys.readouterr().err


def test_default_jobs_reads_repro_bench_jobs(monkeypatch):
    from repro.exp import default_jobs

    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
    assert default_jobs() == 3


def test_bench_compare_names_a_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "compare", str(missing), str(tmp_path / "base.json")])
    assert exc.value.code == 2
    assert f"no result file at {missing}" in capsys.readouterr().err
