"""perfbench: the layered host-performance benchmark of the ``repro`` stack.

Run from the checkout root::

    python3 -m perfbench run                       # every workload, untraced reps + traced ledger
    python3 -m perfbench run --workload p2p_small --seed 3 --seconds 10 --trace 0
    python3 -m perfbench compare A.json B.json
    python3 -m perfbench report                    # regenerate perfbench/LEDGER.md

``BENCHMARK.json`` at the checkout root is the one catalogue of workload and
metric names, units, directions and bounds; nothing here repeats it.  The
program under test (``src/repro``) is only ever imported inside the fresh
child interpreters that :mod:`perfbench.runner` launches.  See README.md.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The checkout root: children run with this as cwd and ``src`` on the path.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Everything a run leaves behind (gitignored).
OUT = HERE / "out"

#: Attribution buckets: the packages under ``src/repro`` that do per-point
#: work, plus ``other`` (stdlib, builtins, numpy, repro's top-level modules
#: and the benchmark's own harness).
LAYERS = ("sim", "ib", "engine", "mpi", "core", "runtime", "model", "mem",
          "coll", "autotune", "plan", "fleet", "faults", "serve", "exp",
          "bench", "other")


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
