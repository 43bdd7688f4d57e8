"""The ``__slots__`` audit: hot-path records must not carry a ``__dict__``.

The DES kernel allocates these types millions of times per sweep; a
per-instance ``__dict__`` costs ~100 bytes and a dict allocation each.
Any class regressing to dict-backed attributes shows up here, not in a
profiler three PRs later.
"""

from __future__ import annotations

import pytest

from repro.config import NICConfig
from repro.ib.constants import Opcode, WCOpcode, WCStatus
from repro.ib.link import IngressPort, WireTimeTable
from repro.ib.wr import SGE, RecvWR, SendWR, WorkCompletion
from repro.sim.core import Environment, Event, Timeout, Timer, _Wake
from repro.sim.events import AllOf
from repro.sim.process import Process
from repro.sim.profile import EventTypeStats, KernelProfile
from repro.sim.resources import Request, Resource, Store
from repro.sim.sync import (
    AtomicCounter,
    Notify,
    SimBarrier,
    SimLock,
    _Park,
)


def _instances():
    env = Environment()
    resource = Resource(env, capacity=1)
    sge = SGE(addr=0, length=8, lkey=1)
    yield env.event()
    yield env.timeout(1.0)
    yield _Wake(env)
    def _body(env):
        yield env.timeout(0)

    yield env.process(_body(env))
    yield AllOf(env, [env.event()])
    yield resource
    yield resource.claim()
    yield Store(env)
    yield SimLock(env)
    yield AtomicCounter(env)
    yield Notify(env)
    yield SimBarrier(env, parties=1)
    # _Park replaced _Race when Notify stopped racing a latch against a
    # timer; it is a record of the parked process now, not an event.
    yield _Park()
    yield sge
    yield SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, sg_list=[sge])
    yield RecvWR(wr_id=2)
    yield WorkCompletion(wr_id=1, status=WCStatus.SUCCESS,
                         opcode=WCOpcode.RDMA_WRITE, qp_num=1)
    yield WireTimeTable(NICConfig())
    yield IngressPort()
    yield EventTypeStats()
    yield KernelProfile()


@pytest.mark.parametrize("instance", list(_instances()),
                         ids=lambda obj: type(obj).__name__)
def test_hot_types_have_no_instance_dict(instance):
    assert not hasattr(instance, "__dict__"), (
        f"{type(instance).__name__} grew a __dict__ — a __slots__ "
        f"declaration is missing somewhere in its class hierarchy"
    )


def test_slotted_event_hierarchy_is_closed():
    # Every Event subclass and calendar Timer (one per WR and per CQE in
    # repro.ib.nic) the kernel ships must stay dict-free, so a new
    # subclass without __slots__ = () is caught by name.
    import repro.ib.nic  # noqa: F401  (defines the NIC's timers)

    def walk(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from walk(sub)

    offenders = [
        cls.__name__ for cls in (*walk(Event), *walk(Timer))
        if cls.__module__.startswith("repro.")
        and "__dict__" in dir(cls) and hasattr(cls, "__slots__")
        and any("__dict__" in getattr(c, "__dict__", {})
                for c in cls.__mro__ if c is not object)
    ]
    assert offenders == [], f"subclasses with __dict__: {offenders}"


def test_timeout_and_process_are_slotted_classes():
    for cls in (Event, Timeout, _Wake, Process, AllOf, Request):
        assert hasattr(cls, "__slots__"), f"{cls.__name__} lost __slots__"
