"""Fig. 3: PLogGP-modelled completion time across partition counts.

The paper feeds Netgauge-measured Niagara LogGP parameters into the
PLogGP model with a 4 ms laggard delay and plots modelled time to
completion against message size for partition counts 1..32.  Expected
shape: low counts win for small/medium messages, high counts win for
large ones, with the crossover in the MiB range.
"""

# Allow both `python benchmarks/bench_*.py` and `python -m benchmarks...`.
if __package__ in (None, ""):
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


import sys

from repro.exp import get_experiment, run_spec, script_main


def run_fig3(**args):
    """{partition count: [completion time per size]}; ``args`` (sizes,
    counts, delay) override the paper grid."""
    return run_spec(get_experiment("fig03").spec(**args))["curves"]


def test_fig03_model_curves(benchmark):
    curves = benchmark.pedantic(run_fig3, rounds=1, iterations=1)
    small_idx, large_idx = 0, len(curves[1]) - 1
    # Fig. 3 shape: 1 partition beats 32 at the small end and loses at
    # the large end.
    assert curves[1][small_idx] < curves[32][small_idx]
    assert curves[32][large_idx] < curves[1][large_idx]
    benchmark.extra_info["best_at_16KiB"] = min(
        curves, key=lambda n: curves[n][small_idx])
    benchmark.extra_info["best_at_256MiB"] = min(
        curves, key=lambda n: curves[n][large_idx])


if __name__ == "__main__":
    sys.exit(script_main("fig03", __doc__))
