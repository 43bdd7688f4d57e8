"""Noise models for compute phases.

The paper's benchmarks (after [8], [14]) inject noise as a fraction of
the compute time.  The **single thread delay model** — one thread per
round receives the full noise amount, the rest none — is what all the
headline figures use (Figs. 9-13 captions); it produces the
many-before-one arrival pattern the PLogGP aggregator assumes.

A model takes its random stream as ``rng``, a zero-argument callable
returning the ``numpy.random.Generator``, and calls it only when it
draws: a point that never draws never derives a stream (and never
imports ``numpy.random``).
"""

from __future__ import annotations

import abc
import math
from typing import Callable

import numpy as np


def _check_fraction(fraction: float) -> None:
    if not (math.isfinite(fraction) and fraction >= 0):
        raise ValueError(f"noise fraction must be finite and >= 0, "
                         f"got {fraction}")


class NoiseModel(abc.ABC):
    """Per-round, per-thread extra compute delay."""

    @abc.abstractmethod
    def delays(self, n_threads: int, compute: float, round_index: int,
               rng: Callable[[], np.random.Generator]) -> np.ndarray:
        """Extra delay (seconds) for each of ``n_threads`` this round;
        ``rng()`` is the stream to draw from."""

    def describe(self) -> str:
        return type(self).__name__


class NoNoise(NoiseModel):
    """No noise: all threads finish compute simultaneously."""

    def delays(self, n_threads, compute, round_index, rng):
        return np.zeros(n_threads)

    def describe(self) -> str:
        return "none"


class SingleThreadDelay(NoiseModel):
    """One thread per round is delayed by ``fraction * compute``.

    The victim rotates pseudo-randomly per round (an OS moving a thread,
    per Section IV-C); set ``fixed_victim`` to pin it for profiling
    runs.
    """

    def __init__(self, fraction: float, fixed_victim: int | None = None):
        _check_fraction(fraction)
        self.fraction = fraction
        self.fixed_victim = fixed_victim

    def delays(self, n_threads, compute, round_index, rng):
        out = np.zeros(n_threads)
        if self.fraction == 0 or n_threads == 0:
            return out
        if self.fixed_victim is not None:
            victim = self.fixed_victim % n_threads
        else:
            victim = int(rng().integers(0, n_threads))
        out[victim] = self.fraction * compute
        return out

    def describe(self) -> str:
        return f"single-thread-delay({self.fraction:.0%})"


class UniformNoise(NoiseModel):
    """Every thread delayed by ``U(0, fraction * compute)``."""

    def __init__(self, fraction: float):
        _check_fraction(fraction)
        self.fraction = fraction

    def delays(self, n_threads, compute, round_index, rng):
        if self.fraction == 0:
            return np.zeros(n_threads)
        return rng().uniform(0.0, self.fraction * compute, size=n_threads)

    def describe(self) -> str:
        return f"uniform({self.fraction:.0%})"
