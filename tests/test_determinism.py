"""Determinism slice: the same simulated bits under any hash seed.

Virtual time may depend only on dispatch order, never on the order a
set iterates or on object identity.  Four points — persist eager and
rendezvous, PLogGP, and a 4x4 sweep — each run in fresh interpreters
under ``PYTHONHASHSEED`` 0, 1 and random and under ``-X dev``, twice in
every interpreter, and the float-hex of every round time must be equal
everywhere.  That guards the opcode flags derived from enum sets, the
dict-keyed MR lookup and the facades that hand back the module's
generator against any hash- or id-order dependence creeping in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHILD = r"""
import json

from repro.bench.overhead import run_overhead
from repro.bench.sweep import run_sweep
from repro.config import NIAGARA
from repro.exp.modules import build_module
from repro.units import KiB


def hexes(times):
    return [float(t).hex() for t in times]


def points():
    out = {}
    for name, module, n_user, total in (
            ("persist-eager-32x512B", lambda: None, 32, 32 * 512),
            ("persist-rndv-32x16KiB", lambda: None, 32, 32 * 16 * KiB),
            ("ploggp-128x128B", lambda: build_module(["ploggp", {}]),
             128, 128 * 128)):
        res = run_overhead(module(), n_user=n_user, total_bytes=total,
                           iterations=3, warmup=1, config=NIAGARA)
        out[name] = hexes(res.result.times)
    sweep = run_sweep(None, grid=(4, 4), total_bytes=256 * KiB,
                      iterations=1, warmup=0, config=NIAGARA)
    out["sweep-4x4-256KiB"] = hexes(sweep.times)
    return out


print(json.dumps([points(), points()]))
"""

#: (label, PYTHONHASHSEED, extra interpreter flags).
RUNS = [
    ("hash seed 0", "0", ()),
    ("hash seed 1", "1", ()),
    ("random hash seed", "random", ()),
    ("-X dev", "random", ("-X", "dev")),
]


def _points(hash_seed: str, flags) -> list:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_BENCH_JOBS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    done = subprocess.run([sys.executable, *flags, "-c", CHILD], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_float_hex_identical_across_hash_seeds_dev_mode_and_repeats():
    reference = None
    for label, hash_seed, flags in RUNS:
        first, second = _points(hash_seed, flags)
        assert first == second, f"{label}: a second run in one interpreter differs"
        if reference is None:
            reference = first
        assert first == reference, f"{label} differs from {RUNS[0][0]}"
    assert sorted(reference) == ["persist-eager-32x512B",
                                 "persist-rndv-32x16KiB", "ploggp-128x128B",
                                 "sweep-4x4-256KiB"]
