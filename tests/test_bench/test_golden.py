"""Golden-output guard: benchmark timing must stay bit-identical.

The transport-engine refactor (and anything after it) is required to
preserve single-rail event ordering exactly: the fig. 6 and fig. 8
mini-sweeps must reproduce the checked-in goldens bit for bit.  Floats
are compared through ``float.hex`` — no tolerance, by design.  If a
change legitimately alters timing (new hardware model, config default),
regenerate the goldens with ``python tests/test_bench/regen_goldens.py``
and explain the delta in the commit.
"""

import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def encode(obj):
    """JSON-stable encoding with bit-exact floats."""
    if isinstance(obj, dict):
        return {str(k): encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(v) for v in obj]
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


def load(name):
    with open(GOLDEN_DIR / name) as fh:
        return json.load(fh)


def test_fig06_mini_sweep_matches_golden():
    from benchmarks.bench_fig06_transport_partitions import (
        OVERHEAD_SIZES_FAST,
        run_fig6,
    )
    from benchmarks.common import FAST_PTP

    result = encode(run_fig6(OVERHEAD_SIZES_FAST, FAST_PTP))
    assert json.loads(json.dumps(result)) == load("fig06_mini.json")


def test_fig08_mini_sweep_matches_golden():
    from benchmarks.bench_fig08_aggregator_comparison import (
        SIZES_FAST,
        run_fig8,
    )
    from benchmarks.common import FAST_PTP

    result = encode(run_fig8([4, 32], SIZES_FAST, FAST_PTP, 3))
    assert json.loads(json.dumps(result)) == load("fig08_mini.json")


def run_fig14_mini():
    """One tiny Sweep3D point per design (the fig14 kernel hot path)."""
    from repro.bench.sweep import run_sweep
    from repro.core import PLogGPAggregator
    from repro.model.tables import NIAGARA_LOGGP
    from repro.units import KiB, ms

    out = {}
    for name, module in (
        ("persist", None),
        ("ploggp", PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))),
    ):
        res = run_sweep(module, grid=(2, 2), n_threads=4,
                        total_bytes=64 * KiB, compute=1e-3,
                        noise_fraction=0.01, iterations=2, warmup=1)
        out[name] = {"times": list(res.times),
                     "mean_time": res.mean_time,
                     "mean_comm_time": res.mean_comm_time}
    return out


def run_ext_stencil_mini():
    """A tiny 2x2 halo exchange (the ext_stencil kernel hot path)."""
    from repro.coll import run_stencil
    from repro.core import PLogGPAggregator
    from repro.model.tables import NIAGARA_LOGGP
    from repro.units import KiB, ms

    out = {}
    for name, module in (
        ("persist", None),
        ("ploggp", PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))),
    ):
        res = run_stencil(module, grid=(2, 2), n_threads=2,
                          face_bytes=16 * KiB, compute=1e-3,
                          noise_fraction=0.01, iterations=2, warmup=1)
        out[name] = {"times": list(res.times),
                     "mean_time": res.mean_time,
                     "mean_comm_time": res.mean_comm_time}
    return out


def run_ext_ablations_mini():
    """The six ``ext_ablations`` fast points: timer, timer+SG, persist,
    two fixed δ and the ``["adaptive", p]`` descriptor (online δ)."""
    from repro.exp import get_experiment
    from repro.exp.profiles import get_profile
    from repro.exp.runner import Runner

    spec = get_experiment("ext_ablations").build(get_profile("fast"))
    results = Runner(jobs=1, cache=None).run(spec.points)
    return {f"{pt.kind} {pt.key}": res for pt, res in results.items()}


def test_fig14_mini_sweep_matches_golden():
    result = encode(run_fig14_mini())
    assert json.loads(json.dumps(result)) == load("fig14_mini.json")


def test_ext_stencil_mini_matches_golden():
    result = encode(run_ext_stencil_mini())
    assert json.loads(json.dumps(result)) == load("ext_stencil_mini.json")


def test_ext_ablations_mini_matches_golden():
    result = encode(run_ext_ablations_mini())
    assert json.loads(json.dumps(result)) == load("ext_ablations_mini.json")
