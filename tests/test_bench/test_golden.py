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


def run_drivers_mini():
    """One small point per round-loop driver the figure goldens miss:
    ``run_halo`` (flat and on a topology), ``run_pallreduce``, a fleet
    with a pair, a halo and a tree tenant, the re-convergence driver
    (the ``round_hooks`` path) and the chaos tree/fleet workloads."""
    from repro.bench.coll import run_pallreduce
    from repro.bench.halo import run_halo
    from repro.chaos.workloads import get_workload
    from repro.core import PLogGPAggregator
    from repro.fleet import JobSpec, run_fleet, run_reconvergence
    from repro.ib.topology import DragonflyPlus
    from repro.model.tables import NIAGARA_LOGGP
    from repro.units import KiB, ms

    def ploggp():
        return PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))

    out = {}
    halo = dict(grid=(2, 2), n_threads=4, face_bytes=64 * KiB,
                compute=1e-3, noise_fraction=0.01, iterations=2, warmup=1)
    out["halo"] = {
        "persist": list(run_halo(None, **halo).times),
        "ploggp": list(run_halo(ploggp(), **halo).times),
        "ploggp_topology": list(run_halo(
            ploggp(), topology=DragonflyPlus(nodes_per_leaf=2,
                                             leaves_per_group=2),
            **halo).times),
    }
    tree = dict(world=5, n_threads=2, n_partitions=4,
                partition_size=16 * KiB, compute=1e-3, noise_fraction=0.01,
                iterations=2, warmup=1)
    out["pallreduce"] = {
        "persist": list(run_pallreduce(None, **tree).times),
        "ploggp": list(run_pallreduce(ploggp(), **tree).times),
    }
    jobs = [
        JobSpec(name="p", kind="pair", n_ranks=2, n_partitions=4,
                partition_size=16 * KiB, iterations=2, warmup=1,
                module=("ploggp", (("delay", 4e-3),))),
        JobSpec(name="h", kind="halo", n_ranks=3, n_partitions=4,
                partition_size=16 * KiB, iterations=2, warmup=1,
                compute=1e-4),
        JobSpec(name="t", kind="tree", n_ranks=3, n_partitions=4,
                partition_size=16 * KiB, iterations=3, warmup=0,
                compute=5e-5, module=("ploggp", (("delay", 4e-3),))),
    ]
    profile = run_fleet(jobs, placement="spread", seed=3)
    out["fleet"] = {
        "makespan": profile.makespan,
        "tenants": {name: {"iteration_times": list(view.iteration_times),
                           "total_time": view.total_time}
                    for name, view in profile.tenants.items()},
    }
    retune = run_reconvergence(
        {"policy": "bandit"}, quiet_rounds=3, congested_rounds=4,
        tail_rounds=2, n_partitions=8, partition_size=16 * KiB,
        neighbor_nbytes=64 * KiB, neighbor_pairs=1, neighbor_streams=2,
        seed=1)
    out["reconvergence"] = [
        [r["n_transport"], r["n_qps"], r["completion_time"]]
        for r in retune["rounds"]]
    out["chaos"] = {
        f"{name} ladder={ladder}":
            get_workload(name).fn(None, 0, ladder=ladder).duration
        for name, ladder in (("pallreduce", False), ("pbcast", False),
                             ("pbcast", True), ("fleet", False))
    }
    return out


def test_fig14_mini_sweep_matches_golden():
    result = encode(run_fig14_mini())
    assert json.loads(json.dumps(result)) == load("fig14_mini.json")


def test_ext_stencil_mini_matches_golden():
    result = encode(run_ext_stencil_mini())
    assert json.loads(json.dumps(result)) == load("ext_stencil_mini.json")


def test_ext_ablations_mini_matches_golden():
    result = encode(run_ext_ablations_mini())
    assert json.loads(json.dumps(result)) == load("ext_ablations_mini.json")


def test_drivers_mini_matches_golden():
    result = encode(run_drivers_mini())
    assert json.loads(json.dumps(result)) == load("drivers_mini.json")
