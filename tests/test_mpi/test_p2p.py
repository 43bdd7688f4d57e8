"""Tests for point-to-point transport: protocols, matching, ordering."""

import numpy as np
import pytest

from repro.errors import MatchingError, MPIError
from repro.mem import Buffer
from repro.mpi import Cluster
from repro.units import KiB, MiB


def make_pair():
    cluster = Cluster(n_nodes=2)
    a, b = cluster.ranks(2)
    return cluster, a, b


def roundtrip(nbytes, tag=1):
    cluster, a, b = make_pair()
    sbuf = Buffer(nbytes)
    rbuf = Buffer(nbytes)
    sbuf.fill_pattern(seed=nbytes % 97)

    def sender(proc):
        yield from proc.send(sbuf, dest=1, tag=tag)

    def receiver(proc):
        yield from proc.recv(rbuf, source=0, tag=tag)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    assert np.array_equal(rbuf.data, sbuf.data)
    return cluster.env.now


def test_inline_roundtrip():
    roundtrip(64)


def test_bcopy_roundtrip():
    roundtrip(1 * KiB)


def test_zcopy_roundtrip():
    roundtrip(8 * KiB)


def test_rndv_roundtrip():
    roundtrip(1 * MiB)


def test_larger_is_slower():
    assert roundtrip(64) < roundtrip(4 * MiB)


def test_unexpected_eager_message_staged():
    """Send before the receive is posted: payload must survive."""
    cluster, a, b = make_pair()
    sbuf = Buffer(512)
    rbuf = Buffer(512)
    sbuf.fill_pattern(seed=5)

    def sender(proc):
        yield from proc.send(sbuf, dest=1, tag=9)

    def receiver(proc):
        yield proc.env.timeout(1e-3)  # message long since arrived
        yield from proc.recv(rbuf, source=0, tag=9)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    assert np.array_equal(rbuf.data, sbuf.data)


def test_unexpected_rndv_message():
    cluster, a, b = make_pair()
    sbuf = Buffer(1 * MiB, backed=False)
    rbuf = Buffer(1 * MiB, backed=False)

    def sender(proc):
        yield from proc.send(sbuf, dest=1, tag=9)

    def receiver(proc):
        yield proc.env.timeout(1e-3)
        yield from proc.recv(rbuf, source=0, tag=9)

    s = cluster.spawn(sender(a))
    r = cluster.spawn(receiver(b))
    cluster.run()
    assert s.value is not None or s._processed
    assert r._processed


def test_tag_matching_distinguishes_messages():
    cluster, a, b = make_pair()
    buf1, buf2 = Buffer(256), Buffer(256)
    recv1, recv2 = Buffer(256), Buffer(256)
    buf1.fill_pattern(seed=1)
    buf2.fill_pattern(seed=2)

    def sender(proc):
        yield from proc.send(buf1, dest=1, tag=11)
        yield from proc.send(buf2, dest=1, tag=22)

    def receiver(proc):
        # Receive in reverse tag order.
        yield from proc.recv(recv2, source=0, tag=22)
        yield from proc.recv(recv1, source=0, tag=11)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    assert np.array_equal(recv1.data, buf1.data)
    assert np.array_equal(recv2.data, buf2.data)


def test_same_tag_fifo_order():
    cluster, a, b = make_pair()
    payloads = [Buffer(256) for _ in range(4)]
    results = [Buffer(256) for _ in range(4)]
    for i, p in enumerate(payloads):
        p.fill_pattern(seed=10 + i)

    def sender(proc):
        for p in payloads:
            yield from proc.send(p, dest=1, tag=5)

    def receiver(proc):
        for r in results:
            yield from proc.recv(r, source=0, tag=5)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    for p, r in zip(payloads, results):
        assert np.array_equal(r.data, p.data)


def test_truncation_rejected():
    cluster, a, b = make_pair()
    sbuf = Buffer(512)
    rbuf = Buffer(128)

    def sender(proc):
        yield from proc.send(sbuf, dest=1, tag=1)

    def receiver(proc):
        yield from proc.recv(rbuf, source=0, tag=1)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    with pytest.raises(MatchingError, match="truncated"):
        cluster.run()


def test_self_send_rejected():
    cluster, a, b = make_pair()
    with pytest.raises(MPIError):
        a.isend(Buffer(64), dest=0, tag=1)


def test_bad_range_rejected():
    cluster, a, b = make_pair()
    buf = Buffer(64)
    with pytest.raises(MPIError):
        a.isend(buf, dest=1, tag=1, nbytes=128)
    with pytest.raises(MPIError):
        b.irecv(buf, source=0, tag=1, offset=60, nbytes=8)


def test_offset_send_recv():
    cluster, a, b = make_pair()
    sbuf = Buffer(1024)
    rbuf = Buffer(1024)
    sbuf.fill_pattern(seed=3)

    def sender(proc):
        yield from proc.send(sbuf, dest=1, tag=1, offset=256, nbytes=512)

    def receiver(proc):
        yield from proc.recv(rbuf, source=0, tag=1, offset=128, nbytes=512)

    cluster.spawn(sender(a))
    cluster.spawn(receiver(b))
    cluster.run()
    assert np.array_equal(rbuf.data[128:640], sbuf.data[256:768])


def test_isend_nonblocking_returns_pending():
    cluster, a, b = make_pair()
    req = a.isend(Buffer(1 * KiB, backed=False), dest=1, tag=1)
    assert not req.done


def test_wait_all():
    cluster, a, b = make_pair()
    sbufs = [Buffer(256, backed=False) for _ in range(4)]
    rbufs = [Buffer(256, backed=False) for _ in range(4)]

    def sender(proc):
        reqs = [proc.isend(s, dest=1, tag=i) for i, s in enumerate(sbufs)]
        yield from proc.wait_all(reqs)
        return proc.env.now

    def receiver(proc):
        reqs = [proc.irecv(r, source=0, tag=i) for i, r in enumerate(rbufs)]
        yield from proc.wait_all(reqs)
        return proc.env.now

    s = cluster.spawn(sender(a))
    r = cluster.spawn(receiver(b))
    cluster.run()
    assert s.value > 0 and r.value > 0


def test_bidirectional_traffic():
    cluster, a, b = make_pair()
    a2b_s, a2b_r = Buffer(64 * KiB), Buffer(64 * KiB)
    b2a_s, b2a_r = Buffer(64 * KiB), Buffer(64 * KiB)
    a2b_s.fill_pattern(seed=1)
    b2a_s.fill_pattern(seed=2)

    def prog_a(proc):
        sreq = proc.isend(a2b_s, dest=1, tag=1)
        rreq = proc.irecv(b2a_r, source=1, tag=2)
        yield from proc.wait_all([sreq, rreq])

    def prog_b(proc):
        sreq = proc.isend(b2a_s, dest=0, tag=2)
        rreq = proc.irecv(a2b_r, source=0, tag=1)
        yield from proc.wait_all([sreq, rreq])

    cluster.spawn(prog_a(a))
    cluster.spawn(prog_b(b))
    cluster.run()
    assert np.array_equal(a2b_r.data, a2b_s.data)
    assert np.array_equal(b2a_r.data, b2a_s.data)


def test_multiple_peers():
    cluster = Cluster(n_nodes=4)
    procs = cluster.ranks(4)
    rbufs = {i: Buffer(256) for i in (1, 2, 3)}
    sbufs = {i: Buffer(256) for i in (1, 2, 3)}
    for i, s in sbufs.items():
        s.fill_pattern(seed=i)

    def hub(proc):
        for i in (1, 2, 3):
            yield from proc.send(sbufs[i], dest=i, tag=i)

    def leaf(proc, i):
        yield from proc.recv(rbufs[i], source=0, tag=i)

    cluster.spawn(hub(procs[0]))
    for i in (1, 2, 3):
        cluster.spawn(leaf(procs[i], i))
    cluster.run()
    for i in (1, 2, 3):
        assert np.array_equal(rbufs[i].data, sbufs[i].data)
