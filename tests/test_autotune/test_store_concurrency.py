"""Concurrent writers on one TuningStore key: atomic replace holds.

The flat store has no versions — last writer wins by design — but its
atomic-replace write path must never let a reader observe a torn
entry, even with real processes racing on the same key.  (The
versioned CAS discipline on top of this layout is covered by
``tests/test_serve``.)
"""

import json
import os
import subprocess
import sys

from repro.autotune import TuningStore, workload_key
from repro.autotune.policy import PlanChoice
from repro.autotune.store import SCHEMA
from repro.serve import ShardedStore

KEY = workload_key(32, 32 * 4096, "race", plan_space="race-1")

WRITER = """
import sys
from repro.autotune import TuningStore, workload_key
from repro.autotune.policy import PlanChoice

root, writer, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
store = TuningStore(root)
key = workload_key(32, 32 * 4096, "race", plan_space="race-1")
for i in range(n):
    store.put(key, PlanChoice(2 ** (writer % 4 + 1), i % 5 + 1),
              meta={"writer": writer, "seq": i})
"""


def test_racing_put_never_tears_a_read(tmp_path):
    store = TuningStore(tmp_path)
    path = store._path(KEY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    procs = [
        subprocess.Popen([sys.executable, "-c", WRITER, str(tmp_path),
                          str(w), "40"],
                         stderr=subprocess.PIPE, text=True, env=env)
        for w in range(3)
    ]
    reads = torn = 0
    while any(p.poll() is None for p in procs):
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            continue
        except ValueError:
            torn += 1
            continue
        reads += 1
        if payload.get("schema") != SCHEMA:
            torn += 1
    for p in procs:
        _, err = p.communicate()
        assert p.returncode == 0, err
    assert torn == 0
    assert reads > 0
    # The surviving entry is one writer's last put, intact.
    final = store.get(KEY)
    assert final is not None
    assert store.corrupt_entries == 0


def test_versioned_cas_rejects_stale_writers(tmp_path):
    # The serve-layer CAS path on the same schema: a writer that read
    # version N cannot overwrite version N+1.
    store = ShardedStore(tmp_path, n_shards=2)
    first = store.commit(KEY, PlanChoice(4, 1))
    store.commit(KEY, PlanChoice(8, 1))
    stale = store.commit(KEY, PlanChoice(16, 1),
                         expect_version=first.entry.version)
    assert not stale.committed
    assert store.read(KEY).choice == PlanChoice(8, 1)
