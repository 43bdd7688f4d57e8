"""Tests of the benchmark itself.  Not part of tier-1 (``testpaths`` is
``tests``); run explicitly from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

from perfbench import LAYERS, ROOT, load_spec
from perfbench.compare import verdict
from perfbench.workloads import ALL, n_ops

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def perfbench(*args, timeout=170):
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=ROOT, text=True, capture_output=True,
                          timeout=timeout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` set of every workload, untraced."""
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    start = time.monotonic()
    proc = perfbench("run", "--smoke", "--trace", "0", "--out", str(out))
    return proc, time.monotonic() - start, out


def test_catalogue_limits_and_names():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    # The driver gates a subset; `perfbench run` measures all seven.
    assert {w["name"] for w in spec["workloads"]} <= set(ALL)
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in spec[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    layer_names = {m["name"] for m in spec["per_layer"]}
    for layer in LAYERS:
        assert {f"{layer}.self_s", f"{layer}.calls"} <= layer_names
    # 4 + 22 runs per workload must fit the driver's 3420 s.
    assert (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 6) < 3420


def test_smoke_set_is_fast_and_clean(smoke):
    proc, took, out = smoke
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert took < 60
    result = json.loads(out.read_text())
    spec = load_spec()
    assert list(result["workloads"]) == list(ALL)
    for record in result["workloads"].values():
        assert record["failed_share"] == 0
        assert set(record["e2e"]) == {m["name"] for m in spec["end_to_end"]}
        for stat in record["e2e"].values():
            assert stat["value"] > 0
    for key in ("git_sha", "python", "nproc", "seed"):
        assert key in result["meta"]


def test_compare_with_itself_is_all_ok(smoke):
    _, _, out = smoke
    proc = perfbench("compare", str(out), str(out), "--strict")
    assert proc.returncode == 0, proc.stdout
    assert "regressed" not in proc.stdout and "unresolved" not in proc.stdout
    assert proc.stdout.count("simulated statistics identical: yes") == len(ALL)


def test_verdict_rule():
    a = {"value": 1.0, "min": 0.98, "max": 1.02}
    assert verdict(a, {"value": 1.05, "min": 1.0, "max": 1.1}, "lower", 0.1)[0] == "ok"
    assert verdict(a, {"value": 1.3, "min": 1.25, "max": 1.35}, "lower", 0.1)[0] == "regressed"
    assert verdict({"value": 1.0, "min": 0.8, "max": 1.4},
                   {"value": 1.2, "min": 0.9, "max": 1.5}, "lower", 0.1)[0] == "unresolved"
    assert verdict(a, {"value": 0.8, "min": 0.7, "max": 0.9}, "higher", 0.1)[0] == "regressed"
    assert verdict(a, {"value": 0.7, "min": 0.6, "max": 0.8}, "lower", 0.1)[0] == "ok"


def test_single_workload_result_line_and_injected_failure(tmp_path):
    spec = load_spec()
    clean = perfbench("run", "--smoke", "--trace", "0", "--workload",
                      "p2p_small", "--seed", "5", "--out", str(tmp_path / "a.json"))
    assert clean.returncode == 0, clean.stderr
    line = json.loads(clean.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}

    broken = perfbench("run", "--smoke", "--trace", "0", "--workload",
                       "p2p_small", "--inject-failure", "p2p_small",
                       "--out", str(tmp_path / "b.json"))
    assert broken.returncode == 1
    line = json.loads(broken.stdout.splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == 1
    assert line["attempted"] == n_ops("p2p_small", 0, smoke=True) + 1
    record = json.loads((tmp_path / "b.json").read_text())["workloads"]["p2p_small"]
    assert record["failed_share"] > 0
    assert any("injected failure" in error for error in record["errors"])


@pytest.mark.parametrize("workload", ["sweep3d", "serve_mixed"])
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    spec = load_spec()
    proc = perfbench("run", "--smoke", "--trace", "1", "--workload", workload,
                     "--out", str(tmp_path / "t.json"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for metric in spec["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    layers = {k: v["value"] for k, v in line["metrics"].items()}
    assert layers["trace.overhead_x"] > 1
    assert layers["ib.probe_us_per_wr_8m"] > layers["ib.probe_us_per_wr_4k"] > 0
    if workload == "sweep3d":
        assert layers["sim.events"] > 0 and layers["ib.wrs_posted"] > 0
        assert layers["serve.get_p50_us"] == 0
    else:
        assert layers["serve.get_p50_us"] > 0 and layers["sim.events"] == 0
        assert 0 < layers["serve.cache_hit_ratio"] < 1
    spans = json.loads((ROOT / "perfbench" / "out" / "trace.json").read_text())["spans"]
    assert {"id", "name", "start", "end", "parent", "workload"} == set(spans[0])
    assert any(s["name"].startswith(("bench.point:", "serve.round")) for s in spans)


def test_refuses_to_run_without_the_program(tmp_path):
    """The contract: a directory holding only BENCHMARK.json and the
    benchmark's paths must fail without printing a result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--workload", "p2p_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
