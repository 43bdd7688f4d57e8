"""Simulated application runtime: worker threads, noise models, the round loop."""

from repro.runtime.noise import (
    NoiseModel,
    NoNoise,
    SingleThreadDelay,
    UniformNoise,
)
from repro.runtime.rounds import RoundClock, RoundTimes, spawn_rounds
from repro.runtime.threadmodel import WorkerTeam, ComputePhase

__all__ = [
    "NoiseModel",
    "NoNoise",
    "SingleThreadDelay",
    "UniformNoise",
    "WorkerTeam",
    "ComputePhase",
    "RoundClock",
    "RoundTimes",
    "spawn_rounds",
]
