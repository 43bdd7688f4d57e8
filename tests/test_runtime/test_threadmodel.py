"""Tests for the worker-team model."""

import numpy as np
import pytest

from repro.config import NIAGARA
from repro.mpi import Cluster
from repro.runtime import (
    ComputePhase,
    NoNoise,
    SingleThreadDelay,
    UniformNoise,
    WorkerTeam,
)
from repro.sim import Environment, RngStreams


def rng():
    """A team's / model's ``rng``: a callable over one generator."""
    generator = np.random.Generator(np.random.PCG64(3))
    return lambda: generator


def test_all_threads_run_body():
    env = Environment()
    team = WorkerTeam(env, 8, rng())
    seen = []

    def body(tid):
        seen.append((tid, env.now))
        return None

    phase = ComputePhase(compute=0.5, noise=NoNoise(), jitter_fraction=0.0)
    team.run_round(phase, body)
    env.run()
    assert sorted(t for t, _ in seen) == list(range(8))
    assert all(t == 0.5 for _, t in seen)


def test_body_generator_consumes_time():
    env = Environment()
    team = WorkerTeam(env, 4, rng())

    def body(tid):
        yield env.timeout(0.1 * (tid + 1))

    phase = ComputePhase(compute=1.0, noise=NoNoise(), jitter_fraction=0.0)
    p = team.run_round(phase, body)
    env.run()
    finish = p.value
    assert finish == [1.1, 1.2, 1.3, 1.4]


def test_single_thread_delay_produces_laggard():
    env = Environment()
    team = WorkerTeam(env, 8, rng())
    phase = ComputePhase(compute=1.0, noise=SingleThreadDelay(0.5),
                         jitter_fraction=0.0)
    p = team.run_round(phase, lambda tid: None)
    env.run()
    finish = sorted(p.value)
    assert finish[-1] == pytest.approx(1.5)
    assert all(f == pytest.approx(1.0) for f in finish[:-1])


def test_jitter_spreads_arrivals():
    """Default jitter: long compute phases never finish in lockstep."""
    env = Environment()
    team = WorkerTeam(env, 32, rng())
    phase = ComputePhase(compute=100e-3, noise=NoNoise())
    p = team.run_round(phase, lambda tid: None)
    env.run()
    finish = sorted(p.value)
    spread = finish[-1] - finish[0]
    # ~0.01% of 100ms, over 32 samples: tens of microseconds.
    assert 5e-6 < spread < 200e-6


def test_jitter_scales_with_oversubscription():
    def spread_for(n, cores):
        env = Environment()
        team = WorkerTeam(env, n, rng(), cores=cores)
        phase = ComputePhase(compute=100e-3, noise=NoNoise())
        p = team.run_round(phase, lambda tid: None)
        env.run()
        finish = sorted(p.value)
        return finish[-1] - finish[0]

    assert spread_for(128, cores=40) > spread_for(128, cores=256)


def test_jitter_validation():
    with pytest.raises(ValueError):
        ComputePhase(compute=1.0, noise=NoNoise(), jitter_fraction=-0.1)


def test_round_counter_advances_noise():
    env = Environment()
    team = WorkerTeam(env, 4, rng())
    phase = ComputePhase(compute=1.0, noise=SingleThreadDelay(0.5))
    victims = []
    for _ in range(6):
        p = team.run_round(phase, lambda tid: None)
        env.run()
        finish = p.value
        victims.append(int(np.argmax(finish)))
    assert len(set(victims)) > 1


def test_oversubscription_flag():
    env = Environment()
    assert WorkerTeam(env, 64, rng(), cores=40).oversubscribed
    assert not WorkerTeam(env, 32, rng(), cores=40).oversubscribed
    assert not WorkerTeam(env, 64, rng()).oversubscribed


def test_team_validation():
    env = Environment()
    with pytest.raises(ValueError):
        WorkerTeam(env, 0, rng())
    with pytest.raises(ValueError):
        ComputePhase(compute=-1.0, noise=NoNoise())


def test_zero_compute_runs_body_immediately():
    env = Environment()
    team = WorkerTeam(env, 2, rng())
    p = team.run_round(ComputePhase(compute=0.0, noise=NoNoise()),
                       lambda tid: None)
    env.run()
    assert p.value == [0.0, 0.0]


@pytest.mark.parametrize("field", ["compute", "jitter_fraction"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_phase_rejects_non_finite_values(field, value):
    kwargs = {"compute": 1.0, "noise": NoNoise(), field: value}
    with pytest.raises(ValueError, match=field):
        ComputePhase(**kwargs)


def test_a_team_that_never_draws_derives_no_stream():
    """A noise-free, zero-compute team (every p2p point) never asks for
    its stream: no generator is built, so ``numpy.random`` stays out."""
    with Cluster(n_nodes=1) as cluster:
        team = WorkerTeam.on(cluster, 8, "noise.sender")
        for _ in range(3):
            team.run_round(ComputePhase(compute=0.0, noise=NoNoise()),
                           lambda tid: None)
            cluster.env.run()
        assert "streams=0" in repr(cluster.rngs)


@pytest.mark.parametrize("noise", [SingleThreadDelay(0.04),
                                   UniformNoise(0.5)])
def test_first_draw_stream_matches_an_eager_stream(noise):
    """Deriving the stream on the first draw draws what an eagerly
    built stream of the same name draws, round after round (noise and
    jitter both come from it)."""
    phase = ComputePhase(compute=1e-3, noise=noise)

    def finishes(env, team):
        out = []
        for _ in range(5):
            done = team.run_round(phase, lambda tid: None)
            env.run()
            out.append(done.value)
        return out

    with Cluster(n_nodes=1) as cluster:
        lazy = finishes(cluster.env,
                        WorkerTeam.on(cluster, 16, "noise.rank3"))
    generator = RngStreams(NIAGARA.seed).stream("noise.rank3")
    env = Environment()
    eager = finishes(env, WorkerTeam(env, 16, lambda: generator,
                                     cores=NIAGARA.host.cores_per_node))
    assert lazy == eager
