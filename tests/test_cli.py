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


def test_serve_stats_on_empty_store(capsys, tmp_path):
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
