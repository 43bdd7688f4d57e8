"""Determinism guard: serial and parallel runs are bit-identical.

Every sweep point builds its own cluster with config-seeded RNG
streams, so a result is a pure function of (scenario, code).  The
harness leans on that for everything — caching, resume, fan-out — so
this test holds it to the strongest possible standard: the fig. 6 and
fig. 8 mini-sweeps must produce byte-for-byte identical payloads under
``jobs=1`` and ``jobs=4`` (arbitrary completion order), and both must
equal the checked-in goldens from ``tests/test_bench``.  Floats are
compared through ``float.hex`` — no tolerance.  The serial payload also
carries the row's guidelines.
"""

import json

import pytest

from repro.exp import FAST, Runner, get_experiment
from tests.test_bench.test_golden import encode, load


def canonical_series(payload):
    return json.loads(json.dumps(encode(payload["series"])))


@pytest.mark.parametrize("name", ["fig06", "fig08"])
def test_mini_sweep_serial_parallel_and_golden_agree(name):
    experiment = get_experiment(name)
    spec = experiment.build(FAST)
    payload = spec.collect(Runner(jobs=1).run(spec.points))
    serial = canonical_series(payload)
    parallel = canonical_series(
        spec.collect(Runner(jobs=4).run(spec.points)))
    assert serial == parallel
    assert serial == load(f"{name}_mini.json")
    assert experiment.violations(payload) == []
