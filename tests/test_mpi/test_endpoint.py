"""Tests for the UCX-like endpoint: protocol tiers, lanes, pacing."""

import pytest

from repro.config import NIAGARA
from repro.mem import Buffer
from repro.mpi import Cluster
from repro.mpi.endpoint import RING_BYTES, Channel
from repro.units import KiB, MiB


def make_pair():
    cluster = Cluster(n_nodes=2)
    a, b = cluster.ranks(2)
    return cluster, a, b


def test_channel_created_lazily_and_cached():
    cluster, a, b = make_pair()
    assert a._channels_out == {}
    chan1 = a.channel_to(1)
    chan2 = a.channel_to(1)
    assert chan1 is chan2
    assert isinstance(chan1, Channel)


def test_channel_has_data_and_control_lanes():
    cluster, a, b = make_pair()
    chan = a.channel_to(1)
    assert len(chan.src_qps) == NIAGARA.ucx.n_lanes + 1
    assert chan.ctrl_qp is chan.src_qps[-1]


def test_control_messages_use_control_lane():
    """Rendezvous RTS must not ride the bulk lanes."""
    cluster, a, b = make_pair()
    sbuf = Buffer(1 * MiB, backed=False)
    rbuf = Buffer(1 * MiB, backed=False)

    def sender(proc):
        yield from proc.send(sbuf, dest=1, tag=1)

    def receiver(proc):
        yield from proc.recv(rbuf, source=0, tag=1)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    chan = a._channels_out[1]
    assert chan.ctrl_qp.posted_sends >= 1        # the RTS
    # CTS went over the reverse channel's control lane.
    back = b._channels_out[0]
    assert back.ctrl_qp.posted_sends >= 1


def test_bulk_payloads_stripe_across_lanes():
    cluster, a, b = make_pair()
    sbufs = [Buffer(1 * MiB, backed=False) for _ in range(4)]
    rbufs = [Buffer(1 * MiB, backed=False) for _ in range(4)]

    def sender(proc):
        reqs = [proc.isend(s, dest=1, tag=i) for i, s in enumerate(sbufs)]
        yield from proc.wait_all(reqs)

    def receiver(proc):
        reqs = [proc.irecv(r, source=0, tag=i) for i, r in enumerate(rbufs)]
        yield from proc.wait_all(reqs)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    chan = a._channels_out[1]
    lane_loads = [qp.posted_sends for qp in chan.src_qps[:NIAGARA.ucx.n_lanes]]
    # Four rendezvous data messages, striped round-robin over 2 lanes.
    assert sorted(lane_loads) == [2, 2]


def test_eager_stays_on_lane_zero():
    cluster, a, b = make_pair()
    sbuf = Buffer(4 * KiB)
    rbufs = [Buffer(4 * KiB) for _ in range(3)]

    def sender(proc):
        for i in range(3):
            yield from proc.send(sbuf, dest=1, tag=i)

    def receiver(proc):
        for i in range(3):
            yield from proc.recv(rbufs[i], source=0, tag=i)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    chan = a._channels_out[1]
    assert chan.src_qps[0].posted_sends == 3
    assert chan.src_qps[1].posted_sends == 0


def test_ring_allocation_wraps():
    cluster, a, b = make_pair()
    chan = a.channel_to(1)
    first = chan.alloc_ring(1024)
    assert first == 0
    chan._ring_head = RING_BYTES - 100
    wrapped = chan.alloc_ring(1024)
    assert wrapped == 0


def test_ring_rejects_oversized():
    from repro.errors import MPIError

    cluster, a, b = make_pair()
    chan = a.channel_to(1)
    with pytest.raises(MPIError):
        chan.alloc_ring(RING_BYTES + 1)


def test_injection_pacing_spaces_messages():
    """Messages through one endpoint obey the protocol gap."""
    cluster, a, b = make_pair()
    n = 8
    size = 4 * KiB  # zcopy tier
    sbuf = Buffer(size, backed=False)
    rbufs = [Buffer(size, backed=False) for _ in range(n)]
    arrivals = []

    def sender(proc):
        reqs = [proc.isend(sbuf, dest=1, tag=i) for i in range(n)]
        yield from proc.wait_all(reqs)

    def receiver(proc):
        reqs = [proc.irecv(rbufs[i], source=0, tag=i) for i in range(n)]
        for req in reqs:
            yield from proc.wait(req)
            arrivals.append(req.completed_at)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    gaps = [t2 - t1 for t1, t2 in zip(arrivals, arrivals[1:])]
    proto_gap = NIAGARA.ucx.protocol_for(size).gap
    assert min(gaps) >= proto_gap * 0.5
