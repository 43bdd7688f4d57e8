"""Tests for the repro-bench CLI."""

import pytest

from repro.cli import main, parse_grid, parse_size, parse_sizes
from repro.units import KiB, MiB, GiB


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
    assert parse_grid("4x8") == (4, 8)


@pytest.mark.parametrize("argv", [
    ["sweep", "--grid", "4x4x4"],
    ["sweep", "--grid", "4"],
    ["sweep", "--grid", "axb"],
    ["stencil", "--grid", "2xq"],
])
def test_bad_grid_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--grid" in err


@pytest.mark.parametrize("flags", [
    ["--iterations", "0"],
    ["--iterations", "2", "--warmup", "-1"],
])
def test_round_counts_are_validated_as_usage_errors(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["overhead", "--sizes", "64KiB"] + flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be >=" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize("argv, message", [
    (["overhead", "--n-user", "0"], "--n-user"),
    (["perceived", "--n-user", "-4"], "--n-user"),
    (["tuning-table", "--n-user", "0"], "--n-user"),
    (["autotune", "tune", "--n-user", "0"], "--n-user"),
    (["sweep", "--threads", "0"], "--threads"),
    (["stencil", "--threads", "0"], "--threads"),
    (["stencil", "--partitions", "0"], "--partitions"),
    (["fleet", "rank", "--partitions", "0"], "--partitions"),
    (["overhead", "--sizes", "4x"], "bad size '4x'"),
    (["sweep", "--sizes", "1MiB,zz"], "bad size 'zz'"),
    (["model", "--sizes", "0"], "size must be >= 1B"),
    (["netgauge", "--sizes", ","], "no sizes"),
    (["stencil", "--faces", "64KiB,q"], "--faces"),
    (["fleet", "profile", "--partition-size", "4x"], "--partition-size"),
    (["overhead", "--n-user", "3", "--sizes", "4096"],
     "not divisible by 3 partitions"),
    (["perceived", "--n-user", "3", "--sizes", "4MiB"], "not divisible"),
    (["tuning-table", "--n-user", "3", "--sizes", "4MiB"], "not divisible"),
    (["sweep", "--threads", "3", "--sizes", "64KiB"], "not divisible"),
    (["stencil", "--threads", "3"], "not divisible by 3 threads"),
    (["stencil", "--threads", "3", "--partitions", "3"], "not divisible"),
    (["bench", "run", "nope"], "unknown experiment(s): nope"),
    (["plan", "show", "nope"], "unknown experiment(s): nope"),
    (["plan", "diff", "fig08", "nope"], "unknown experiment(s): nope"),
    (["stencil", "--grid", "4"], "bad grid '4'"),
    (["stencil", "--grid", "2x2x2x2"], "bad grid '2x2x2x2'"),
    (["sweep", "--grid", "0x2"], "bad grid '0x2'"),
    (["fleet", "rank", "--levels", "a"], "bad counts 'a'"),
    (["fleet", "rank", "--levels", "-1"], "bad counts '-1'"),
    (["fleet", "profile", "--jobs", "pair:x"], "bad --jobs entry 'pair:x'"),
    (["chaos", "--runs", "0"], "--runs"),
    (["serve", "bench", "--clients", "0"], "--clients"),
    (["serve", "bench", "--requests", "0"], "--requests"),
    (["netgauge", "--iterations", "0"], "--iterations"),
    (["plan", "show", "fig08", "--profile", "nope"], "--profile"),
    (["plan", "diff", "fig08", "--baseline-profile", "nope"],
     "--baseline-profile"),
    (["bench", "compare", "new.json", "old.json", "--threshold", "-0.1"],
     "--threshold"),
    (["sweep", "--noise", "-0.01"], "--noise"),
    (["sweep", "--noise", "nan"], "--noise"),
    (["sweep", "--compute-ms", "inf"], "--compute-ms"),
    (["perceived", "--compute-ms", "nan"], "--compute-ms"),
    (["perceived", "--noise", "-1"], "--noise"),
    (["stencil", "--compute-ms", "-1"], "--compute-ms"),
    (["stencil", "--noise", "inf"], "--noise"),
    (["autotune", "tune", "--noise", "nan"], "--noise"),
    (["fleet", "rank", "--transports", "4,x"], "bad counts '4,x'"),
    (["fleet", "rank", "--transports", ","], "bad counts ','"),
    (["serve", "bench", "--keys", "0"], "--keys"),
    (["chaos", "--kinds", ",,"], "unknown fault kind(s): ',,'"),
    (["chaos", "--kinds", "nope"], "unknown fault kind(s): nope"),
    (["chaos", "--workloads", "nope"], "unknown workload(s): nope"),
    (["chaos", "--horizon-ms", "-1"], "--horizon-ms"),
    (["chaos", "--horizon-ms", "0"], "--horizon-ms"),
    (["chaos", "--horizon-ms", "nan"], "--horizon-ms"),
    (["chaos", "--horizon-ms", "inf"], "--horizon-ms"),
    (["fleet", "retune", "--compute-us", "-5"], "--compute-us"),
])
def test_bad_flags_are_usage_errors(argv, message, capsys):
    # A bad count, size or name is argparse's exit 2, raised before
    # anything is simulated: never a traceback, never exit 1.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "128MiB" in out
    assert "MISMATCH" not in out


def test_model_command(capsys):
    assert main(["model", "--sizes", "16KiB,64MiB"]) == 0
    out = capsys.readouterr().out
    assert "16KiB" in out
    assert "32p" in out


def test_overhead_command(capsys):
    assert main(["overhead", "--n-user", "8", "--sizes", "64KiB",
                 "--iterations", "4", "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "64KiB" in out
    assert "x" in out


@pytest.mark.parametrize("aggregator", ["timer", "none"])
def test_overhead_command_aggregators(aggregator, capsys):
    assert main(["overhead", "--n-user", "8", "--sizes", "64KiB",
                 "--aggregator", aggregator, "--iterations", "4",
                 "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert aggregator in out
    assert "64KiB" in out


def test_perceived_command(capsys):
    assert main(["perceived", "--n-user", "8", "--sizes", "4MiB",
                 "--compute-ms", "5", "--iterations", "2",
                 "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "persist" in out
    assert "1-thread line" in out


def test_sweep_command(capsys):
    assert main(["sweep", "--grid", "2x2", "--threads", "4",
                 "--sizes", "64KiB", "--iterations", "2",
                 "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "16 cores" in out


def test_netgauge_command(capsys):
    assert main(["netgauge", "--sizes", "4KiB", "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "o_r" in out
    assert "GiB/s" in out


def test_tuning_table_command(capsys):
    assert main(["tuning-table", "--n-user", "4", "--sizes", "64KiB",
                 "--iterations", "2", "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "transport partitions" in out


def test_unknown_aggregator_rejected():
    with pytest.raises(SystemExit):
        main(["overhead", "--aggregator", "bogus"])


def test_fleet_rank_command(capsys):
    assert main(["fleet", "rank", "--levels", "0,1",
                 "--transports", "4", "--partitions", "8",
                 "--iterations", "2", "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "partitioned-pair ranking" in out
    assert "bg tenants" in out
    assert "T=4" in out
    assert "spine util" in out


def test_fleet_profile_command(capsys):
    assert main(["fleet", "profile", "--jobs", "pair:2",
                 "--background", "1", "--partitions", "8",
                 "--iterations", "2", "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "fleet profile: 2 tenants" in out
    assert "pair0" in out
    assert "busiest links:" in out


def test_fleet_profile_rejects_unknown_job_kind(capsys):
    # A ConfigError is a usage error (exit 2), not a traceback.
    with pytest.raises(SystemExit) as exc:
        main(["fleet", "profile", "--jobs", "bogus:2"])
    assert exc.value.code == 2
    assert "unknown job kind" in capsys.readouterr().err


def test_fleet_retune_exits_by_adaptation(capsys):
    # Too short an episode to re-converge: exit 1, summary still prints.
    assert main(["fleet", "retune", "--quiet-rounds", "2",
                 "--congested-rounds", "3", "--tail-rounds", "1",
                 "--compute-us", "0"]) == 1
    out = capsys.readouterr().out
    assert "quiet-best plan" in out
    assert "congested-best plan" in out


def test_fleet_retune_without_a_regret_prints_a_dash(capsys):
    # One round per phase cannot re-converge, so there is no regret.
    assert main(["fleet", "retune", "--quiet-rounds", "1",
                 "--congested-rounds", "1", "--tail-rounds", "1"]) in (0, 1)
    out = capsys.readouterr().out
    regret = next(line for line in out.splitlines() if "regret" in line)
    assert regret.split()[-1] == "-"


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
    assert main(["serve", "bench", "--clients", "10", "--requests",
                 "120", "--keys", "8", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "hit rate" in out
    assert "p50 / p99" in out


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
