"""End-to-end tests for the `repro-bench bench` command group."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.exp import RESULT_SCHEMA, experiment_names, get_experiment


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


def test_bench_run_writes_artifacts_and_caches(tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["bench", "run", "table1", "--profile", "fast", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--results-dir", str(tmp_path / "results")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "== table1:" in out
    assert "[fast]" in out

    full_path = tmp_path / "results" / "table1.json"
    assert f"wrote {full_path}" in out
    assert list(tmp_path.glob("*.json")) == []
    doc = json.loads(full_path.read_text(encoding="utf-8"))
    assert doc["schema"] == RESULT_SCHEMA
    assert doc["experiment"] == "table1"

    # Re-run is a pure cache read.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 cached, 0 executed" in out


def test_bench_compare_gates_on_regression(tmp_path, capsys):
    argv = ["bench", "run", "table1", "--profile", "fast", "--quiet",
            "--no-cache", "--results-dir", str(tmp_path / "results")]
    assert main(argv) == 0
    capsys.readouterr()
    artifact = tmp_path / "results" / "table1.json"

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
    regressed = tmp_path / "table1_regressed.json"
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


@pytest.mark.parametrize("body, message", [
    ("{ not json", "not a JSON artifact"),
    ("[1, 2]", "a JSON list, not an object"),
])
def test_bench_compare_rejects_a_non_artifact(tmp_path, capsys, body,
                                              message):
    bad = tmp_path / "bad.json"
    bad.write_text(body)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "compare", str(bad), str(bad)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_bench_compare_names_a_missing_file(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "compare", str(missing), str(tmp_path / "base.json")])
    assert exc.value.code == 2
    assert f"no result file at {missing}" in capsys.readouterr().err


@pytest.mark.parametrize("change, named", [
    ({"profile": "paper"}, "profile 'paper'"),
    ({"experiment": "fig08"}, "experiment 'fig08'"),
    ({"profile": None}, "profile None"),
])
def test_bench_compare_refuses_a_foreign_run(tmp_path, capsys, change,
                                             named):
    """A paper run against the fast baseline compares 100-iteration values
    with 10-iteration ones; it is a usage error naming both sides."""
    baseline = BASELINES / "BENCH_fig06.json"
    doc = json.loads(baseline.read_text(encoding="utf-8"))
    new = tmp_path / "fig06.json"
    new.write_text(json.dumps(
        {k: v for k, v in dict(doc, **change).items() if v is not None}),
        encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "compare", str(new), str(baseline)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err and repr(doc[next(iter(change))]) in err


def test_bench_compare_takes_artifacts_without_a_profile(tmp_path, capsys):
    doc = {"schema": RESULT_SCHEMA, "experiment": "fig06",
           "metric": {"higher_is_better": True}, "series": {"T=2": 1.5}}
    path = tmp_path / "synthetic.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["bench", "compare", str(path), str(path)]) == 0
    assert "OK" in capsys.readouterr().out


#: The series the committed baselines declare under a higher-is-better
#: metric but that are better when lower.
LOWER_IS_BETTER = {
    "ext_serve": ("p50 lookup latency (us)", "p99 lookup latency (us)"),
    "ext_fleet": ("slowdown, shared mix", "slowdown, mix + neighbor",
                  "re-convergence rounds"),
}
BASELINES = pathlib.Path(__file__).resolve().parents[2] / "results" \
    / "baselines"


@pytest.mark.parametrize("name, label", [
    (name, label) for name, labels in LOWER_IS_BETTER.items()
    for label in labels])
def test_bench_compare_judges_lower_is_better_series(name, label, tmp_path,
                                                     capsys):
    """A new run's artifact names its lower-is-better series, as the
    experiment's row lists them; against the committed baseline (which
    predates the list) doubling one is a regression and halving it an
    improvement."""
    baseline = BASELINES / f"BENCH_{name}.json"
    doc = json.loads(baseline.read_text(encoding="utf-8"))
    metric = dict(doc["metric"], lower_is_better=list(LOWER_IS_BETTER[name]))
    for factor, code, verdict in ((2.0, 1, "REGRESSION"),
                                  (0.5, 0, "improved")):
        series = dict(doc["series"])
        series[label] = {k: v * factor for k, v in series[label].items()}
        new = tmp_path / f"new_{factor}.json"
        new.write_text(json.dumps(dict(doc, metric=metric, series=series)),
                       encoding="utf-8")
        assert main(["bench", "compare", str(new), str(baseline)]) == code
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if f" {label} @ " in line]
        assert lines and all(verdict in line for line in lines), lines
    assert set(get_experiment(name).lower_is_better) == set(
        LOWER_IS_BETTER[name])
