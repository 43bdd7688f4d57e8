"""Discrete-event simulation kernel.

A small, deterministic, generator-based simulator in the style of SimPy,
written from scratch so the package has no dependency beyond numpy.
Simulated processes are Python generators that yield :class:`Event`
objects; the :class:`Environment` advances virtual time and resumes
processes when their events fire.

Determinism guarantees:

* events scheduled for the same timestamp fire in (priority, insertion
  order), so repeated runs of the same model produce identical traces;
* all randomness must come through :class:`~repro.sim.rng.RngStreams`,
  which derives independent named substreams from a single seed.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(1.5)
...     return env.now
>>> p = env.process(hello(env))
>>> env.run()
>>> p.value
1.5
"""

from repro.sim.core import (
    Environment,
    Event,
    Timeout,
    PARKED,
    PRIORITY_URGENT,
    PRIORITY_NORMAL,
)
from repro.sim.process import Process
from repro.sim.events import AllOf
from repro.sim.resources import Resource, Store
from repro.sim.sync import SimLock, AtomicCounter, SimBarrier, Notify
from repro.sim.rng import RngStreams
from repro.sim.monitor import TraceRecord

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "PARKED",
    "Process",
    "AllOf",
    "Resource",
    "Store",
    "SimLock",
    "SimBarrier",
    "AtomicCounter",
    "Notify",
    "RngStreams",
    "TraceRecord",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]
