"""Regenerate the benchmark goldens (run from the repo root).

Only do this when a change *legitimately* alters simulated timing —
new hardware model, changed config default — never to paper over an
unintended perturbation.  Usage::

    PYTHONPATH=src:. python tests/test_bench/regen_goldens.py
"""

import json
import pathlib
import sys

if __package__ in (None, ""):
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from tests.test_bench.test_golden import (  # noqa: E402
    GOLDEN_DIR,
    encode,
    run_drivers_mini,
    run_ext_ablations_mini,
    run_ext_stencil_mini,
    run_fig14_mini,
)


def main() -> None:
    from benchmarks.bench_fig06_transport_partitions import (
        OVERHEAD_SIZES_FAST,
        run_fig6,
    )
    from benchmarks.bench_fig08_aggregator_comparison import (
        SIZES_FAST,
        run_fig8,
    )
    from benchmarks.common import FAST_PTP

    goldens = {
        "fig06_mini.json": run_fig6(OVERHEAD_SIZES_FAST, FAST_PTP),
        "fig08_mini.json": run_fig8([4, 32], SIZES_FAST, FAST_PTP, 3),
        "fig14_mini.json": run_fig14_mini(),
        "ext_stencil_mini.json": run_ext_stencil_mini(),
        "ext_ablations_mini.json": run_ext_ablations_mini(),
        "drivers_mini.json": run_drivers_mini(),
    }
    for name, result in goldens.items():
        path = GOLDEN_DIR / name
        with open(path, "w") as fh:
            json.dump(encode(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
