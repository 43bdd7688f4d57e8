"""Tests for request objects: lifecycle, stats, error paths."""

import numpy as np
import pytest

from repro.errors import PartitionError, RequestError
from repro.mem import PartitionedBuffer
from repro.mpi import Cluster
from repro.mpi.request import (
    P2PRequest,
    PartitionedState,
    PrecvRequest,
    PsendRequest,
)


@pytest.fixture
def proc():
    return Cluster(n_nodes=1).add_process()


def test_request_ids_unique(proc):
    buf = PartitionedBuffer(4, 256)
    a = PsendRequest(proc, buf, dest=1, tag=0, module_name="m")
    b = PsendRequest(proc, buf, dest=1, tag=0, module_name="m")
    assert a.request_id != b.request_id


def test_p2p_kind_validated(proc):
    from repro.mem import Buffer

    with pytest.raises(RequestError):
        P2PRequest(proc, "bogus", Buffer(64), 64, 1, 0)


def test_partitioned_initial_state(proc):
    req = PsendRequest(proc, PartitionedBuffer(4, 256), dest=1, tag=0,
                       module_name="m")
    assert req.state is PartitionedState.SETUP
    assert not req.done
    assert req.round == 0
    assert req.total_bytes == 1024


def test_rearm_resets_completion(proc):
    req = PsendRequest(proc, PartitionedBuffer(4, 256), dest=1, tag=0,
                       module_name="m")
    req.state = PartitionedState.INACTIVE
    req.rearm()
    assert req.state is PartitionedState.ACTIVE
    assert req.round == 1
    req.mark_complete()
    assert req.done
    assert req.state is PartitionedState.COMPLETE
    req.rearm()
    assert not req.done
    assert req.round == 2


class _Module:
    """Stands in for a transport: ``pready`` returns what it was given."""

    def pready(self, req, partition):
        return ("module", partition)


def _psend(proc, n=4):
    req = PsendRequest(proc, PartitionedBuffer(n, 256), dest=1, tag=0,
                       module_name="m")
    req.module = _Module()
    return req


def test_require_active(proc):
    req = _psend(proc)
    with pytest.raises(RequestError, match="Pready on a request in state "
                                           "setup"):
        proc.pready(req, 0)
    req.state = PartitionedState.ACTIVE
    assert proc.pready(req, 0) == ("module", 0)   # no raise
    assert req.pready_times[0] == proc.env.now


def test_pready_checks_the_partition_and_the_request_kind(proc):
    req = _psend(proc)
    req.state = PartitionedState.ACTIVE
    for bad in (4, -1):
        with pytest.raises(PartitionError, match=r"outside \[0, 4\)"):
            proc.pready(req, bad)
    assert req.pready_times == [None] * 4   # a refused call stamps nothing
    recv = PrecvRequest(proc, PartitionedBuffer(4, 256), source=0, tag=0,
                        module_name="m")
    recv.module = _Module()
    recv.state = PartitionedState.ACTIVE
    with pytest.raises(RequestError, match="only valid on Psend"):
        proc.pready(recv, 0)


def test_check_partition_bounds(proc):
    req = PsendRequest(proc, PartitionedBuffer(4, 256), dest=1, tag=0,
                       module_name="m")
    req.check_partition(0)
    req.check_partition(3)
    with pytest.raises(PartitionError):
        req.check_partition(4)
    with pytest.raises(PartitionError):
        req.check_partition(-1)


def test_precv_arrival_tracking(proc):
    req = PrecvRequest(proc, PartitionedBuffer(8, 256), source=0, tag=0,
                       module_name="m")
    assert not req.all_arrived
    req.mark_arrived(2, 3)
    assert np.array_equal(req.arrived,
                          [False, False, True, True, True, False, False,
                           False])
    req.mark_arrived(0, 2)
    req.mark_arrived(5, 3)
    assert req.all_arrived
    assert all(t is not None for t in req.arrival_times)


def test_precv_all_arrived_counts_each_flag_once(proc):
    # all_arrived reads a count, not a reduction over the flags: a
    # replayed range overlapping flags already set must not count twice,
    # and a reset must zero the count with the flags.
    req = PrecvRequest(proc, PartitionedBuffer(6, 256), source=0, tag=0,
                       module_name="m")
    req.mark_arrived(1, 1)
    req.mark_arrived(1, 1)                 # duplicate single
    req.mark_arrived(0, 4)                 # overlaps partition 1
    req.mark_arrived(2, 3)                 # overlaps 2 and 3
    assert not req.all_arrived
    assert int(req.arrived.sum()) == 5
    req.mark_arrived(5, 1)
    assert req.all_arrived and bool(req.arrived.all())
    req.reset_round_stats()
    assert not req.all_arrived
    req.mark_arrived(0, 6)
    assert req.all_arrived


def test_precv_arrival_range_validated(proc):
    req = PrecvRequest(proc, PartitionedBuffer(4, 256), source=0, tag=0,
                       module_name="m")
    with pytest.raises(PartitionError):
        req.mark_arrived(3, 2)
    with pytest.raises(PartitionError):
        req.mark_arrived(0, 0)
    with pytest.raises(PartitionError):
        req.mark_arrived(-1, 1)


def test_round_stats_reset(proc):
    send = PsendRequest(proc, PartitionedBuffer(4, 256), dest=1, tag=0,
                        module_name="m")
    send.pready_times[1] = 0.0
    send.reset_round_stats()
    assert send.pready_times == [None] * 4
    recv = PrecvRequest(proc, PartitionedBuffer(4, 256), source=0, tag=0,
                        module_name="m")
    recv.mark_arrived(0, 4)
    recv.reset_round_stats()
    assert not recv.arrived.any()
    assert recv.arrival_times == [None] * 4


def test_completed_at_recorded(proc):
    req = PsendRequest(proc, PartitionedBuffer(4, 256), dest=1, tag=0,
                       module_name="m")
    assert req.completed_at is None
    req.mark_complete()
    assert req.completed_at == proc.env.now
