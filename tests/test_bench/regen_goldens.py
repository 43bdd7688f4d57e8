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


def fast_series(name: str) -> dict:
    """Experiment ``name``'s series at the fast profile."""
    from repro.exp import FAST, Runner, get_experiment

    spec = get_experiment(name).build(FAST)
    return spec.collect(Runner().run(spec.points))["series"]


def main() -> None:
    goldens = {
        "fig06_mini.json": fast_series("fig06"),
        "fig08_mini.json": fast_series("fig08"),
        "fig14_mini.json": run_fig14_mini(),
        "ext_stencil_mini.json": run_ext_stencil_mini(),
        "ext_ablations_mini.json": run_ext_ablations_mini()[0],
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
