"""Bit-exact reproducibility of faulty runs and the zero-overhead off path.

Two guarantees anchor the subsystem:

* the same root seed plus the same schedule produce bit-identical
  virtual-time results and fault counters on every run (scripted
  windows are pure functions of time; probabilistic draws come from
  per-link substreams consumed in deterministic transmission order);
* with **no** schedule installed the fault hooks reduce to one
  ``is None`` check, so headline benchmark numbers are bit-identical
  to the fault-free simulator (goldens captured before the subsystem
  was merged).
"""

import pytest

from repro.bench.pair import run_partitioned_pair
from repro.faults import FaultSchedule
from repro.mpi.persist_module import PersistSpec
from repro.units import KiB, MiB, us


def lossy_schedule():
    return (FaultSchedule()
            .chunk_loss(0.05)
            .latency_spike(0, 1, start=us(20), duration=us(100), extra=us(2))
            .link_flap(0, 1, start=us(150), duration=us(80)))


def run_once(seed=7):
    return run_partitioned_pair(
        PersistSpec, n_user=4, partition_size=256 * KiB,
        iterations=3, warmup=1, seed=seed, fault_schedule=lossy_schedule())


@pytest.mark.faults
def test_same_seed_same_schedule_bit_identical():
    a, b = run_once(), run_once()
    assert [it.elapsed for it in a.iterations] == \
        [it.elapsed for it in b.iterations]
    assert [it.pready_times for it in a.iterations] == \
        [it.pready_times for it in b.iterations]
    assert a.counters == b.counters
    assert a.counters.get("fault.chunks_lost", 0) > 0


@pytest.mark.faults
def test_different_seed_different_fault_pattern():
    a, b = run_once(seed=7), run_once(seed=8)
    assert a.counters != b.counters or \
        [it.elapsed for it in a.iterations] != \
        [it.elapsed for it in b.iterations]


# -- zero-overhead off path ----------------------------------------------
#
# Goldens captured from the seed simulator (before the fault subsystem
# existed); an installed-schedule-free run must reproduce them exactly.

FIG6_GOLDEN = {
    "T=2": {4096: 2.416755645179967, 524288: 2.4083458374281754},
    "T=8": {4096: 2.6672998788221833, 524288: 2.5028871442040614},
    "T=32": {4096: 0.9491537345148157, 524288: 2.5028871442040437},
}

FIG9_GOLDEN = {
    "persist": {1048576: 77662796118.17976, 8388608: 152057564011.67825},
    "ploggp": {1048576: 21523680723.140354, 8388608: 84291739875.51491},
    "timer(3000us)": {1048576: 148699352873.72034,
                      8388608: 172189445785.12283},
}


def _series(name: str, *args) -> dict:
    from repro.exp import Runner, get_experiment

    spec = get_experiment(name).spec(*args)
    return spec.collect(Runner().run(spec.points))["series"]


@pytest.mark.slow
def test_fig6_bit_identical_without_schedule():
    series = _series("fig06", [4 * KiB, 512 * KiB],
                     dict(iterations=5, warmup=2))
    assert series == FIG6_GOLDEN


@pytest.mark.slow
def test_fig9_bit_identical_without_schedule():
    series = _series("fig09", [16], [1 * MiB, 8 * MiB], 3, 1)
    assert series == FIG9_GOLDEN


@pytest.mark.faults
def test_counters_empty_without_schedule():
    r = run_partitioned_pair(PersistSpec, n_user=4,
                             partition_size=64 * KiB,
                             iterations=2, warmup=1)
    assert r.counters == {}
