"""Shared stubs for the engine-layer unit tests."""

from collections import Counter

import pytest

from repro.sim import Environment


class FakeSchedule:
    def __init__(self, allow_reconnect=True):
        self.allow_reconnect = allow_reconnect


class FakeFaults:
    def __init__(self, allow_reconnect=True):
        self.schedule = FakeSchedule(allow_reconnect)


class FakeFabric:
    """Just enough fabric for ReplayTracker: faults policy + counters."""

    def __init__(self, faults=None):
        self.faults = faults
        self.counters = Counter()


class FakeWC:
    def __init__(self, wr_id, ok=True):
        self.wr_id = wr_id
        self.ok = ok
        self.imm_data = None


class FakeCQ:
    """A completion queue the router can poll: a list plus push hooks."""

    def __init__(self):
        self.wcs = []
        self.on_push = []

    def push(self, wc):
        self.wcs.append(wc)
        for hook in self.on_push:
            hook()

    def poll(self, n):
        out, self.wcs = self.wcs[:n], self.wcs[n:]
        return out


class FakeHost:
    t_poll_hit = 100e-9


@pytest.fixture
def env():
    return Environment()
