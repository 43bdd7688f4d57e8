"""Multi-process writer stress: prove no torn and no lost entries.

The concurrency claims of :mod:`repro.serve.shard` are OS-level
(``os.replace`` atomicity, ``flock`` exclusion), so they must be
exercised by real *processes*, not threads.  This module is both:

* a writer subprocess (``python -m repro.serve.stress --writer ...``)
  that hammers one key with commits until it has landed its quota;
* a coordinator (:func:`run_multiwriter_stress`, also the default
  ``python -m repro.serve.stress --root ... --writers N`` entry) that
  launches N such writers against one store root, reads the contested
  entry continuously while they run (counting torn reads: a file that
  exists but fails to parse or schema-check), and audits the end
  state.  It exits 1 when either invariant below is broken, so CI can
  gate on it.

Invariants audited (the acceptance criteria of ISSUE 10):

* **no torn entries** — every mid-run read of an existing entry file
  parses and schema-checks (``torn_reads == 0``);
* **no lost entries** — the final version equals the total number of
  commits the writers report as successful: every successful commit
  bumped the version exactly once, so none overwrote concurrently
  without noticing (``lost_updates == 0``).

In ``cas`` mode each writer read-modify-writes with
``expect_version``, so conflicts are real rejections and the audit
additionally checks that rejected commits never wrote.  Every writer's
first commit expects the empty store (version 0), so at most one lands
and ``total_conflicts >= n_writers - 1``; the rest is OS scheduling.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from repro.atomic import read_json
from repro.autotune.policy import PlanChoice
from repro.autotune.store import SCHEMA, workload_key
from repro.serve.shard import ShardedStore

#: The single contested key every stress writer hammers.
STRESS_KEY = workload_key(64, 64 * 4096, "stress", plan_space="stress-v1")


def _stress_choice(writer: int, seq: int) -> PlanChoice:
    """A writer/sequence-identifiable plan (for post-mortem debugging)."""
    return PlanChoice(n_transport=2 ** (writer % 4 + 1),
                      n_qps=seq % 7 + 1, delta=float(writer))


def writer_main(root: str, n_shards: int, writer: int, n_puts: int,
                mode: str) -> dict:
    """Commit ``n_puts`` times to the contested key; report counts."""
    store = ShardedStore(root, n_shards=n_shards)
    committed = 0
    conflicts = 0
    attempts = 0
    while committed < n_puts:
        attempts += 1
        choice = _stress_choice(writer, committed)
        meta = {"writer": writer, "seq": committed}
        if mode == "cas":
            # The first commit expects the empty entry the coordinator
            # starts from, so at most one writer's first commit lands.
            current = store.read(STRESS_KEY) if attempts > 1 else None
            expect = current.version if current is not None else 0
            result = store.commit(STRESS_KEY, choice, meta=meta,
                                  expect_version=expect)
        else:
            result = store.commit(STRESS_KEY, choice, meta=meta)
        if result.committed:
            committed += 1
        else:
            conflicts += 1
    return {"writer": writer, "commits": committed,
            "conflicts": conflicts, "attempts": attempts}


def _audit_read(path: Path) -> Optional[bool]:
    """One raw read of the contested file: None=absent, True=clean."""
    try:
        payload = read_json(path, SCHEMA)
    except (OSError, ValueError):
        return False
    return None if payload is None else "version" in payload


def run_multiwriter_stress(root: str, n_writers: int = 4,
                           n_puts: int = 25, mode: str = "confident",
                           n_shards: int = 4,
                           timeout: float = 120.0) -> dict:
    """Launch writer subprocesses; audit torn/lost invariants.

    Returns a result dict whose ``torn_reads`` and ``lost_updates``
    must both be zero for a healthy store.
    """
    store = ShardedStore(root, n_shards=n_shards)
    contested = store.path_for(STRESS_KEY)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.serve.stress",
             "--writer", str(w), "--root", root,
             "--n-shards", str(n_shards), "--n-puts", str(n_puts),
             "--mode", mode],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        for w in range(n_writers)
    ]
    # Read the contested entry while the writers race.  Every read of
    # an *existing* file must be clean — os.replace means a reader
    # never observes a half-written entry.
    reads = 0
    torn = 0
    deadline = time.monotonic() + timeout
    while any(p.poll() is None for p in procs):
        if time.monotonic() > deadline:
            for p in procs:
                p.kill()
            raise TimeoutError(f"stress writers exceeded {timeout}s")
        clean = _audit_read(contested)
        if clean is not None:
            reads += 1
            if not clean:
                torn += 1
    reports = []
    for p in procs:
        out, err = p.communicate()
        if p.returncode != 0:
            raise RuntimeError(f"stress writer failed "
                               f"(rc={p.returncode}): {err.strip()}")
        reports.append(json.loads(out))
    total_commits = sum(r["commits"] for r in reports)
    total_conflicts = sum(r["conflicts"] for r in reports)
    final = store.read(STRESS_KEY)
    final_version = final.version if final is not None else 0
    return {
        "mode": mode,
        "n_writers": n_writers,
        "n_puts": n_puts,
        "total_commits": total_commits,
        "total_conflicts": total_conflicts,
        "final_version": final_version,
        # Every successful commit bumps the version by exactly one, so
        # any overwrite that didn't observe its predecessor shows up as
        # a version shortfall.
        "lost_updates": total_commits - final_version,
        "audit_reads": reads,
        "torn_reads": torn,
        "writers": reports,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="serve-store multi-writer stress "
                    "(--writer is the internal per-writer entry)")
    parser.add_argument("--writer", type=int, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--root", required=True)
    parser.add_argument("--n-shards", type=int, default=4)
    parser.add_argument("--writers", type=int, default=4,
                        help="writer processes to race (coordinator mode)")
    parser.add_argument("--n-puts", "--puts", type=int, default=25,
                        dest="n_puts")
    parser.add_argument("--mode", choices=("confident", "cas"),
                        default="confident")
    args = parser.parse_args(argv)
    if args.writer is not None:
        report = writer_main(args.root, args.n_shards, args.writer,
                             args.n_puts, args.mode)
    else:
        report = run_multiwriter_stress(
            args.root, n_writers=args.writers, n_puts=args.n_puts,
            mode=args.mode, n_shards=args.n_shards)
    json.dump(report, sys.stdout,
              indent=None if args.writer is not None else 2)
    sys.stdout.write("\n")
    if args.writer is None and (report["lost_updates"]
                                or report["torn_reads"]):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
