"""Tests for the repro-bench CLI."""

import json

import pytest

from repro.cli import main
from repro.exp.kinds import parse_grid, parse_size, parse_sizes
from repro.units import KiB, MiB, GiB

PERSIST = 'module=["persist"]'
PLOGGP = 'module=["ploggp",{"delay":0.004}]'
OVERHEAD = ["point", "overhead", PERSIST, "total_bytes=64KiB"]
SWEEP = ["point", "sweep", PERSIST, "n_threads=4", "total_bytes=64KiB"]
STENCIL = ["point", "stencil", "n_threads=4", "n_partitions=32",
           "face_bytes=64KiB"]
PERCEIVED = ["point", "perceived", PERSIST, "total_bytes=4MiB"]


def point(argv, capsys) -> dict:
    """Run ``repro-bench point`` (no cache) and parse what it prints."""
    assert main(argv + ["--no-cache"]) == 0
    return json.loads(capsys.readouterr().out)


def test_parse_size_suffixes():
    assert parse_size("64KiB") == 64 * KiB
    assert parse_size("2MiB") == 2 * MiB
    assert parse_size("1GiB") == GiB
    assert parse_size("512B") == 512
    assert parse_size("4096") == 4096
    assert parse_size("1.5KiB") == 1536


def test_parse_sizes_list():
    assert parse_sizes("1KiB, 2KiB,4KiB") == [1024, 2048, 4096]


def test_parse_grid():
    assert parse_grid("4x8") == [4, 8]


@pytest.mark.parametrize("argv", [
    SWEEP + ["grid=4x4x4"],
    SWEEP + ["grid=4"],
    SWEEP + ["grid=axb"],
    STENCIL + ["grid=2xq"],
])
def test_bad_grid_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--no-cache"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "grid" in err


@pytest.mark.parametrize("flags", [
    ["iterations=0"],
    ["iterations=2", "warmup=-1"],
])
def test_round_counts_are_validated_as_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(OVERHEAD + ["n_user=8"] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "want an integer >=" in captured.err
    assert "nan" not in captured.out


def _row(argv, message, was=None):
    """A row of the table below; ``was`` is the id it had as a flag of a
    command that ``point`` replaced, so the row keeps its history."""
    return pytest.param(argv, message, id=was) if was else (argv, message)


@pytest.mark.parametrize("argv, message", [
    _row(OVERHEAD + ["n_user=0"], "n_user", "argv0---n-user"),
    _row(PERCEIVED + ["n_user=-4"], "n_user", "argv1---n-user"),
    _row(["point", "tuning_table", "n_user=0", "total_bytes=4MiB"],
         "n_user", "argv2---n-user"),
    (["autotune", "tune", "--n-user", "0"], "--n-user"),
    _row(["point", "sweep", PERSIST, "n_threads=0", "total_bytes=64KiB"],
         "n_threads", "argv4---threads"),
    _row(["point", "stencil", "n_threads=0", "n_partitions=32",
          "face_bytes=64KiB"], "n_threads", "argv5---threads"),
    _row(["point", "stencil", "n_threads=4", "n_partitions=0",
          "face_bytes=64KiB"], "n_partitions", "argv6---partitions"),
    _row(["point", "fleet_rank", "n_partitions=0"], "n_partitions",
         "argv7---partitions"),
    (["point", "overhead", PERSIST, "n_user=8", "total_bytes=4x"],
     "bad size '4x'"),
    (SWEEP[:-1] + ["total_bytes=zz"], "bad size 'zz'"),
    (["point", "model_curve", "sizes=[0]", "n=1", "delay=4ms"],
     "size must be >= 1B"),
    (["point", "netgauge", "sizes=,"], "no sizes"),
    _row(STENCIL[:-1] + ["face_bytes=64KiB,q"], "face_bytes: bad size 'q'",
         "argv12---faces"),
    _row(["point", "fleet_rank", "partition_size=4x"], "partition_size",
         "argv13---partition-size"),
    (OVERHEAD[:-1] + ["n_user=3", "total_bytes=4096"],
     "not divisible by 3 partitions"),
    (PERCEIVED[:-1] + ["n_user=3", "total_bytes=4MiB"], "not divisible"),
    (["point", "tuning_table", "n_user=4", "total_bytes=4098"],
     "not divisible"),
    (["point", "sweep", PERSIST, "n_threads=3", "total_bytes=64KiB"],
     "not divisible"),
    (["point", "stencil", "n_threads=3", "n_partitions=32",
      "face_bytes=64KiB"], "not divisible by 3 threads"),
    (["point", "stencil", "n_threads=3", "n_partitions=3",
      "face_bytes=64KiB"], "not divisible"),
    (["bench", "run", "nope"], "unknown experiment(s): nope"),
    (["plan", "show", "nope"], "unknown experiment(s): nope"),
    (["plan", "diff", "fig08", "nope"], "unknown experiment(s): nope"),
    (STENCIL + ["grid=4"], "bad grid '4'"),
    (STENCIL + ["grid=2x2x2x2"], "bad grid '2x2x2x2'"),
    (SWEEP + ["grid=0x2"], "bad grid '0x2'"),
    _row(["point", "fleet_rank", "level=a"], "level", "argv26-bad counts 'a'"),
    _row(["point", "fleet_rank", "level=-1"], "level",
         "argv27-bad counts '-1'"),
    _row(["point", "fleet", 'jobs=[{"name":"p","n_ranks":1}]'],
         "a job needs at least two ranks",
         "argv28-bad --jobs entry 'pair:x'"),
    (["chaos", "--runs", "0"], "--runs"),
    _row(["point", "serve_bench", "n_clients=0"], "n_clients",
         "argv30---clients"),
    _row(["point", "serve_bench", "n_requests=0"], "n_requests",
         "argv31---requests"),
    _row(["point", "netgauge", "rounds=0"], "rounds", "argv32---iterations"),
    (["plan", "show", "fig08", "--profile", "nope"], "--profile"),
    (["plan", "diff", "fig08", "--baseline-profile", "nope"],
     "--baseline-profile"),
    (["bench", "compare", "new.json", "old.json", "--threshold", "-0.1"],
     "--threshold"),
    _row(SWEEP + ["noise_fraction=-0.01"], "noise_fraction",
         "argv36---noise"),
    _row(SWEEP + ["noise_fraction=nan"], "noise_fraction", "argv37---noise"),
    _row(SWEEP + ["compute=infms"], "compute", "argv38---compute-ms"),
    _row(PERCEIVED + ["n_user=8", "compute=NaN"], "compute",
         "argv39---compute-ms"),
    _row(PERCEIVED + ["n_user=8", "noise_fraction=-1"], "noise_fraction",
         "argv40---noise"),
    _row(STENCIL + ["compute=-1ms"], "compute", "argv41---compute-ms"),
    _row(STENCIL + ["noise_fraction=Infinity"], "noise_fraction",
         "argv42---noise"),
    (["autotune", "tune", "--noise", "nan"], "--noise"),
    _row(["point", "fleet_rank", 'module=["fixed4"]'], "module",
         "argv44-bad counts '4,x'"),
    _row(["point", "fleet_rank", "module=[]"], "module",
         "argv45-bad counts ','"),
    _row(["point", "serve_bench", "n_keys=0"], "n_keys", "argv46---keys"),
    (["chaos", "--kinds", ",,"], "unknown fault kind(s): ',,'"),
    (["chaos", "--kinds", "nope"], "unknown fault kind(s): nope"),
    (["chaos", "--workloads", "nope"], "unknown workload(s): nope"),
    (["chaos", "--horizon-ms", "-1"], "--horizon-ms"),
    (["chaos", "--horizon-ms", "0"], "--horizon-ms"),
    (["chaos", "--horizon-ms", "nan"], "--horizon-ms"),
    (["chaos", "--horizon-ms", "inf"], "--horizon-ms"),
    _row(["point", "fleet_autotune", "autotune={}", "compute=-5us"],
         "compute", "argv54---compute-us"),
    (["point", "nope"], "unknown kind 'nope'"),
    (["point", "table1", "n=1"], "table1: no param n"),
    (["point", "overhead", "n_user=8"], "missing module, total_bytes"),
    (OVERHEAD + ["n_user"], "want distinct key=value pairs"),
    (OVERHEAD + ["n_user=8", "n_user=4"], "want distinct key=value pairs"),
    (["point", "serve_bench", "zipf_s=nan"], "zipf_s"),
    (["point", "model_curve", "sizes=16KiB", "n=2", "delay=nan"], "delay"),
    (["point", "overhead", 'module=["timer",{"delta":NaN}]', "n_user=8",
      "total_bytes=64KiB"], "delta must be >= 0, got nan"),
    (["chaos", "--seed", "-1", "--runs", "1"],
     "chaos: seed: want an integer >= 0, got -1"),
    (["point", "chaos", "workload=pallreduce", "fault=flap_storm", "seed=0",
      "index=0", "max_duration=nan"],
     "chaos: max_duration: must be finite and >= 0, got nan"),
    (SWEEP + ["grid=4x4x4"], "sweep: grid: want a 2-D grid, got [4, 4, 4]"),
    (["point", "tuning_table", "n_user=3", "total_bytes=4MiB"],
     "tuning_table: n_user: want a power of two, got 3"),
])
def test_bad_flags_are_usage_errors(argv, message, capsys):
    # A bad count, size or name is argparse's exit 2, raised before
    # anything is simulated: never a traceback, never exit 1.
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--no-cache"] if argv[0] == "point" else []))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_a_point_error_names_what_its_kind_takes(capsys):
    with pytest.raises(SystemExit):
        main(OVERHEAD + ["n_user=0"])
    assert ("overhead: n_user: want an integer >= 1, got 0 (overhead "
            "needs module, n_user, total_bytes; takes iterations, warmup, "
            "config, seed)") in capsys.readouterr().err


def test_table1_command(capsys):
    from repro.model.tables import TABLE1_PAPER

    table = point(["point", "table1"], capsys)["metrics"]["table"]
    assert table == {str(size): n for size, n in TABLE1_PAPER.items()}


def test_model_command(capsys):
    out = point(["point", "model_curve", "sizes=16KiB,64MiB", "n=32",
                 "delay=4ms"], capsys)
    assert out["params"] == {"sizes": [16 * KiB, 64 * MiB], "n": 32,
                             "delay": 0.004}
    first, last = out["metrics"]["times"]
    assert 0 < first < last


def test_overhead_command(capsys):
    out = point(["point", "overhead", PLOGGP, "n_user=8", "total_bytes=64KiB",
                 "iterations=4", "warmup=1"], capsys)
    assert out["kind"] == "overhead"
    assert out["metrics"]["mean_time"] > 0


@pytest.mark.parametrize("aggregator", ["timer", "none"])
def test_overhead_command_aggregators(aggregator, capsys):
    module = {"timer": '["timer",{"delta":3.5e-05}]', "none": '["noagg"]'}
    out = point(["point", "overhead", f"module={module[aggregator]}",
                 "n_user=8", "total_bytes=64KiB", "iterations=4",
                 "warmup=1"], capsys)
    assert out["metrics"]["mean_time"] > 0


def test_perceived_command(capsys):
    out = point(PERCEIVED + ["n_user=8", "compute=5ms", "iterations=2",
                             "warmup=1"], capsys)
    assert out["params"]["compute"] == 0.005
    assert out["metrics"]["perceived_bandwidth"] > 0


def test_sweep_command(capsys):
    out = point(SWEEP + ["grid=2x2", "iterations=2", "warmup=1"], capsys)
    assert out["params"]["grid"] == [2, 2]
    assert out["metrics"]["mean_comm_time"] > 0


def test_netgauge_command(capsys):
    out = point(["point", "netgauge", "sizes=4KiB", "rounds=3"], capsys)
    loggp = out["metrics"]["loggp"]["4096"]
    assert set(loggp) == {"L", "o_s", "o_r", "g", "G", "bandwidth"}
    assert loggp["o_r"] > 0


def test_tuning_table_command(capsys):
    out = point(["point", "tuning_table", "n_user=4", "total_bytes=64KiB",
                 "iterations=2", "warmup=1"], capsys)
    assert out["metrics"]["n_transport"] in (1, 2, 4)


def test_unknown_aggregator_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["point", "overhead", 'module=["bogus"]', "n_user=8",
              "total_bytes=64KiB", "--no-cache"])
    assert exc.value.code == 2
    assert "module" in capsys.readouterr().err


def test_fleet_rank_command(capsys):
    out = point(["point", "fleet_rank",
                 'module=["fixed",{"n_transport":4,"n_qps":2}]', "level=1",
                 "n_partitions=8", "iterations=2", "warmup=1"], capsys)
    assert out["metrics"]["mean_time"] > 0
    assert out["metrics"]["spine_utilization"] > 0


def test_fleet_profile_command(capsys):
    jobs = [{"name": "pair0", "kind": "pair", "n_partitions": 8,
             "iterations": 2, "warmup": 1},
            {"name": "bg0", "kind": "traffic",
             "traffic": {"kind": "permutation", "nbytes": 256 * KiB,
                         "period": 3e-05, "horizon": 0.004, "seed": 101}}]
    out = point(["point", "fleet", f"jobs={json.dumps(jobs)}",
                 "placement=spread"], capsys)
    assert set(out["metrics"]["slowdowns"]) == {"pair0"}
    assert out["metrics"]["busiest_links"]


def test_fleet_profile_rejects_unknown_job_kind(capsys):
    # A ConfigError is a usage error (exit 2), not a traceback.
    with pytest.raises(SystemExit) as exc:
        main(["point", "fleet", 'jobs=[{"name":"x","kind":"bogus"}]'])
    assert exc.value.code == 2
    assert "unknown job kind" in capsys.readouterr().err


def test_fleet_retune_exits_by_adaptation(capsys):
    # Too short an episode to re-converge: not adapted, which is what
    # makes ext_fleet's guideline fail; both phase-best plans still report.
    out = point(["point", "fleet_autotune",
                 'autotune={"policy":"bandit","counts":[4,16]}',
                 "quiet_rounds=2", "congested_rounds=3", "tail_rounds=1",
                 "compute=0"], capsys)
    assert out["metrics"]["adapted"] is False
    assert "quiet_best" in out["metrics"]
    assert "congested_best" in out["metrics"]


def test_fleet_retune_without_a_regret_prints_a_dash(capsys):
    # One round per phase cannot re-converge, so there is no regret.
    out = point(["point", "fleet_autotune",
                 'autotune={"policy":"bandit","counts":[4,16]}',
                 "quiet_rounds=1", "congested_rounds=1", "tail_rounds=1"],
                capsys)
    assert out["metrics"]["regret"] is None


def test_chaos_writes_a_bundle_per_violating_run(capsys, tmp_path,
                                                 monkeypatch):
    from repro.chaos import WORKLOADS, RunReport

    def wrong_bytes(schedule, seed, module):
        return RunReport(workload="pbcast", completed=True, duration=1e-3,
                         integrity_failures=1)

    monkeypatch.setitem(WORKLOADS, "pbcast", (5, wrong_bytes))
    assert main(["chaos", "--workloads", "pbcast,pallreduce", "--runs", "2",
                 "--seed", "3", "--quiet", "--bundle-dir",
                 str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "1 violation(s) in 1 run(s)" in out
    assert ("VIOLATED ext_chaos: every run upholds every invariant"
            in out)
    [path] = tmp_path.iterdir()
    assert path.name == "chaos-pbcast-run0.json"
    bundle = json.loads(path.read_text())
    assert bundle["index"] == 0 and bundle["kind"] == "flap_storm"
    assert bundle["violations"] == [
        "byte integrity: 1 iteration(s) received wrong bytes"]


def test_serve_stats_on_empty_store(capsys, tmp_path):
    (tmp_path / "empty").mkdir()
    assert main(["serve", "stats", "--root", str(tmp_path / "empty")]) == 0
    out = capsys.readouterr().out
    assert "entries" in out
    assert " 0" in out


def test_serve_warm_from_store_directory(capsys, tmp_path):
    from repro.autotune import TuningStore, workload_key
    from repro.autotune.policy import PlanChoice

    flat = TuningStore(tmp_path / "flat")
    flat.put(workload_key(32, 1 << 20, "t", plan_space="p"),
             PlanChoice(4, 2))
    root = tmp_path / "serve"
    assert main(["serve", "warm", "--root", str(root),
                 "--source", str(tmp_path / "flat")]) == 0
    out = capsys.readouterr().out
    assert "1 imported" in out
    assert main(["serve", "stats", "--root", str(root)]) == 0
    assert " 1" in capsys.readouterr().out


def test_serve_bench_command(capsys):
    out = point(["point", "serve_bench", "n_clients=10", "n_requests=120",
                 "n_keys=8", "n_shards=2"], capsys)
    assert 0 < out["metrics"]["hit_rate"] <= 1
    assert out["metrics"]["p99_latency_us"] >= out["metrics"]["p50_latency_us"]


def test_autotune_show_warns_on_corrupt_entries(capsys, tmp_path):
    from repro.autotune import TuningStore, workload_key
    from repro.autotune.policy import PlanChoice

    store = TuningStore(tmp_path)
    path = store.put(workload_key(32, 1 << 20, "t", plan_space="p"),
                     PlanChoice(4, 2))
    path.write_text("{ torn")
    assert main(["autotune", "show", "--store", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "corrupt" in captured.err


@pytest.mark.parametrize("argv", [
    ["serve", "stats", "--root"],
    ["autotune", "show", "--store"],
    ["serve", "warm", "--source"],
])
def test_read_only_commands_create_no_store(argv, capsys, tmp_path):
    typo = tmp_path / "typo"
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(typo)])
    assert exc.value.code == 2
    assert f"no store at {typo}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
