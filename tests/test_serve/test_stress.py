"""Multi-process stress: the torn/lost invariants under real races."""

import json

import pytest

from repro.serve import stress
from repro.serve.stress import (
    STRESS_KEY,
    run_multiwriter_stress,
    writer_main,
)
from repro.serve.shard import ShardedStore


def test_writer_main_commits_its_quota(tmp_path):
    report = writer_main(str(tmp_path), 2, writer=0, n_puts=5,
                         mode="confident")
    assert report["commits"] == 5
    assert report["conflicts"] == 0
    store = ShardedStore(tmp_path, n_shards=2)
    assert store.read(STRESS_KEY).version == 5


def test_cas_writer_retries_until_quota(tmp_path):
    # Two interleaved single-process CAS writers: every rejection is
    # retried until each lands its quota.
    a = writer_main(str(tmp_path), 2, writer=0, n_puts=3, mode="cas")
    b = writer_main(str(tmp_path), 2, writer=1, n_puts=3, mode="cas")
    store = ShardedStore(tmp_path, n_shards=2)
    assert store.read(STRESS_KEY).version == a["commits"] + b["commits"]


@pytest.mark.parametrize("mode", ["confident", "cas"])
def test_multiwriter_stress_no_torn_no_lost(tmp_path, mode):
    res = run_multiwriter_stress(str(tmp_path / mode), n_writers=3,
                                 n_puts=6, mode=mode)
    assert res["torn_reads"] == 0
    assert res["lost_updates"] == 0
    assert res["total_commits"] == 3 * 6
    assert res["final_version"] == 3 * 6
    if mode == "cas":
        # CAS rejections never write: the version audit above already
        # proves it, the counter just confirms rejections were real.
        assert res["total_conflicts"] >= 0


def test_audit_read_calls_a_non_object_torn(tmp_path):
    path = tmp_path / "entry.json"
    assert stress._audit_read(path) is None
    for rot in (b"[1, 2]\n", b"null\n", b"3\n", b"{ torn",
                b"\xff\xfe\x00garbage\x80"):
        path.write_bytes(rot)
        assert stress._audit_read(path) is False
    writer_main(str(tmp_path / "root"), 2, writer=0, n_puts=1,
                mode="confident")
    landed = ShardedStore(tmp_path / "root").path_for(STRESS_KEY)
    assert stress._audit_read(landed) is True


@pytest.mark.parametrize("lost, torn, code", [
    (0, 0, 0), (1, 0, 1), (0, 2, 1), (-1, 0, 1), (3, 4, 1)])
def test_coordinator_exit_code_reports_broken_invariants(
        monkeypatch, capsys, tmp_path, lost, torn, code):
    calls = []

    def fake_stress(root, **kwargs):
        calls.append((root, kwargs))
        return {"mode": kwargs["mode"], "lost_updates": lost,
                "torn_reads": torn}

    monkeypatch.setattr(stress, "run_multiwriter_stress", fake_stress)
    rc = stress.main(["--root", str(tmp_path), "--writers", "4",
                      "--n-puts", "300", "--mode", "cas"])
    assert rc == code
    assert calls == [(str(tmp_path), {"n_writers": 4, "n_puts": 300,
                                      "mode": "cas", "n_shards": 4})]
    # The report is printed either way.
    assert json.loads(capsys.readouterr().out)["lost_updates"] == lost


def test_writer_mode_exit_code_is_unchanged(capsys, tmp_path):
    rc = stress.main(["--writer", "0", "--root", str(tmp_path),
                      "--n-shards", "2", "--n-puts", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["commits"] == 2
