"""The NIC engine: WQE processing, transmission, delivery, completion.

One :class:`NIC` per simulated node.  Each registered QP gets a sender
process that drains the QP's send queue in order (per-QP ordering is an
InfiniBand RC guarantee the MPI mapping relies on).  Transmission
timing follows :mod:`repro.ib.link`; delivery performs the actual
remote-memory write and produces work completions on both sides.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.config import ClusterConfig
from repro.errors import ProtectionError
from repro.faults.schedule import CHUNK_OK
from repro.ib.constants import Opcode, QPState, WCOpcode, WCStatus
from repro.ib.link import IngressPort, wire_table
from repro.ib.qp import QueuePair
from repro.ib.wr import SendWR, WorkCompletion
from repro.sim.core import Environment
from repro.sim.monitor import Trace
from repro.sim.resources import Resource, Store

if TYPE_CHECKING:
    from repro.ib.fabric import Fabric


class NIC:
    """A simulated HCA attached to one node."""

    def __init__(self, env: Environment, fabric: "Fabric", node_id: int,
                 config: ClusterConfig, trace: Optional[Trace] = None):
        self.env = env
        self.fabric = fabric
        self.node_id = node_id
        self.config = config
        self.trace = trace if trace is not None else Trace(enabled=False)
        #: Per-port wires.  Each physical port is an independent link:
        #: a capacity-1 egress serializer shared by the QPs bound to it,
        #: and an ingress pipe of its own.  ``egress``/``ingress`` alias
        #: port 0 so single-port code (and its event ordering) is
        #: untouched.
        n_ports = config.nic.n_ports
        #: Slotted per-config wire timings (shared across same-config NICs).
        self.wires = wire_table(config.nic)
        self.ports = [Resource(env, capacity=1) for _ in range(n_ports)]
        self.ingress_ports = [IngressPort() for _ in range(n_ports)]
        self.egress = self.ports[0]
        self.ingress = self.ingress_ports[0]
        self._qp_numbers = itertools.count(node_id * 1_000_000 + 1)
        self.qps: dict[int, QueuePair] = {}
        # statistics
        self.wqes_processed = 0
        self.bytes_transmitted = 0
        self.messages_delivered = 0

    # -- QP lifecycle -----------------------------------------------------

    def register_qp(self, qp: QueuePair) -> None:
        """Attach a QP to this NIC and start its engine pipeline.

        Each QP gets a two-stage pipeline: WQE fetch/parse (``t_wqe``
        per entry) feeding an in-order transmit stage, so WQE processing
        overlaps the previous message's wire time — as the hardware
        pipelines them.  The two hand-offs differ on purpose.
        ``post_send`` wakes an idle fetch stage through the event queue:
        every WR posted in one instant counts in ``sq_depth`` and sits in
        the SQ (where ``to_error`` flushes it) until the engine picks it
        up, later in that instant.  The fetch stage resumes an idle
        transmit stage in place (:meth:`Store.hand_off`): nothing
        observes the gap between the two.
        """
        if len(self.qps) >= self.config.nic.max_qps:
            raise ProtectionError("QP limit exceeded on NIC")
        qp.nic = self
        qp.sq = Store(self.env)
        qp._txq = Store(self.env)
        self.qps[qp.qp_num] = qp
        self.env.process(self._qp_fetcher(qp))
        self.env.process(self._qp_transmitter(qp))

    def next_qp_num(self) -> int:
        return next(self._qp_numbers)

    # -- port selection -----------------------------------------------------

    def egress_for(self, qp: QueuePair) -> Resource:
        """The egress serializer of the port ``qp`` is bound to."""
        return self.ports[qp.port % len(self.ports)]

    def ingress_for(self, qp: QueuePair) -> IngressPort:
        """The ingress pipe ``qp``'s traffic lands on at this NIC.

        Keyed by the *sending* QP's port: both ends of a connection
        bind the same port index, so this is the receiving port too
        (modulo the local port count, for asymmetric NICs).
        """
        return self.ingress_ports[qp.port % len(self.ingress_ports)]

    # -- send path ----------------------------------------------------------

    def _qp_fetcher(self, qp: QueuePair):
        """Stage 1: fetch/parse WQEs (pipelines with transmission)."""
        cfg = self.config.nic
        sq = qp.sq
        trace = self.trace
        while True:
            wr: SendWR = sq.pop() if sq.items else (yield sq.get())
            qp.sq_depth -= 1
            if qp.state is QPState.ERROR:
                self._flush_wr(qp, wr)
                continue
            # WQE fetch + DMA programming.
            yield cfg.t_wqe
            self.wqes_processed += 1
            # Reads source their data at the responder; the local list
            # is a scatter sink, so there is nothing to gather here.
            payload = (None if wr.opcode is Opcode.RDMA_READ
                       else self._gather(qp, wr))
            if trace.enabled:
                trace.record(self.env.now, "ib.wqe_start", self.node_id,
                             qp=qp.qp_num, wr_id=wr.wr_id,
                             nbytes=wr.total_length)
            qp._txq.hand_off((wr, payload))

    def _qp_transmitter(self, qp: QueuePair):
        """Stage 2: in-order transmission of one QP's messages.

        With no fault schedule installed on the fabric the fault-aware
        branches are never entered and the virtual-time behaviour is
        bit-identical to the fault-free simulator.
        """
        env = self.env
        fabric = self.fabric
        txq = qp._txq
        while True:
            wr, payload = txq.pop() if txq.items else (yield txq.get())
            if qp.state is QPState.ERROR:
                self._flush_wr(qp, wr)
                continue
            faults = fabric.faults
            if faults is not None:
                # NIC-stall gate: a stalled NIC holds the WQE until the
                # window ends; the QP may have been killed meanwhile.
                until = faults.stall_until(self.node_id, env.now)
                if until > env.now:
                    fabric.counters.inc("fault.nic_stalls")
                    self.trace.record(env.now, "fault.nic_stall",
                                      self.node_id, qp=qp.qp_num, until=until)
                    yield until - env.now
                    if qp.state is QPState.ERROR:
                        self._flush_wr(qp, wr)
                        continue
            nbytes = wr.total_length
            remote = fabric.nic_at(qp.dest_node)
            if wr.opcode is Opcode.RDMA_READ:
                yield from self._execute_read(qp, wr, nbytes, remote)
            elif remote is self:
                # Loopback never touches the wire; only stalls apply.
                yield from self._transmit_loopback(qp, wr, payload, nbytes, remote)
            elif fabric.links is not None and faults is None:
                # A fault schedule bypasses the routed links: chunk loss
                # and retransmission are modelled on the end-to-end wire
                # only, so with a schedule installed no LinkQueue carries
                # a chunk.  Composing loss with hop-by-hop forwarding
                # changes simulated results and is a follow-up; the pin
                # is tests/test_fleet/test_chaos_fleet.py.
                yield from self._transmit_routed(qp, wr, payload, nbytes,
                                                 remote)
            else:
                yield from self._transmit_wire(qp, wr, payload, nbytes, remote)

    def _chunk_train(self, qp: QueuePair, dest: "NIC", ingress: IngressPort,
                     nbytes: int, latency: float, forward=None):
        """Inject ``nbytes`` toward ``dest`` as a train of wire chunks.

        The simulator's one per-chunk loop.  It runs on the
        *transmitting* NIC: ``qp`` paces the train and names the egress
        port (the posting QP for sends and writes, the responder-side QP
        for read responses) and ``ingress`` is the pipe at ``dest`` the
        bytes land on.  Each chunk costs, in this order, at most one
        pacing sleep, one egress grant and one occupancy — the ordering
        every golden depends on (docs/PERF.md).  Only what happens to a
        chunk once it has left egress differs by fabric:

        * a fault schedule draws the chunk's fate first; a lost or
          corrupted chunk ends the train and ``None`` is returned;
        * ``forward`` (routed topologies) is spawned per chunk to walk
          the route's shared links and admit the chunk itself;
        * otherwise ingress is serialized analytically, right here.

        Returns the last chunk's arrival time at ``dest``.
        """
        env = self.env
        wires = self.wires
        trace = self.trace
        faults = self.fabric.faults
        egress = self.egress_for(qp)
        arrival = env._now
        for chunk in wires.chunks(nbytes):
            # Per-QP injection rate limit: spaces chunk starts so a lone
            # QP tops out at qp_rate; gaps are usable by other QPs.
            if env._now < qp.next_inject_time:
                yield qp.next_inject_time - env._now
            grant = egress.claim()
            if grant.callbacks is not None:
                yield grant  # busy port: wait for the hand-off
            start = env._now
            occupancy = wires.occupancy(chunk)
            yield occupancy
            egress.release(grant)
            qp.next_inject_time = start + wires.spacing(chunk)
            self.bytes_transmitted += chunk
            if trace.enabled:
                trace.record(start, "ib.chunk", self.node_id,
                             qp=qp.qp_num, nbytes=chunk,
                             occupancy=occupancy)
            if faults is not None:
                if faults.chunk_outcome(self.node_id, dest.node_id,
                                        start) is not CHUNK_OK:
                    # The receiver drops everything after the missing
                    # PSN; stop wasting wire time on the rest.
                    return None
                extra = faults.latency_extra(self.node_id, dest.node_id,
                                             start)
                arrival = ingress.admit(start, occupancy, latency + extra,
                                        chunk)
            elif forward is not None:
                env.process(forward(occupancy, chunk))
            else:
                arrival = ingress.admit(start, occupancy, latency, chunk)
        return arrival

    def _transmit_wire(self, qp: QueuePair, wr: SendWR, payload, nbytes: int,
                       remote: "NIC"):
        """Wire transmission, with loss, NAKs and RC retransmission.

        Fault-free the loop runs exactly once: one chunk train, then
        delivery.  Under a fault schedule go-back-N is approximated at
        message granularity: a lost or corrupted chunk stops the
        attempt, the transmitter stalls for the QP's ACK timeout
        (``4.096us * 2**timeout``), and the whole message retransmits —
        preserving the RC in-order guarantee the MPI mapping relies on.
        ``retry_cnt`` exhaustion completes the WR with ``RETRY_EXC_ERR``
        and kills the QP; RNR NAKs back off for the responder's RNR
        timer and burn ``rnr_retry`` (7 = retry forever, per the IB
        spec).
        """
        env = self.env
        faults = self.fabric.faults
        counters = self.fabric.counters
        retry_budget = qp.effective_retry_cnt
        rnr_budget = qp.effective_rnr_retry
        ingress = remote.ingress_for(qp)
        retransmit = False
        while True:
            if qp.state is QPState.ERROR:
                self._flush_wr(qp, wr)
                return
            if retransmit:
                counters.inc("ib.retransmits")
                self.trace.record(env.now, "fault.retransmit", self.node_id,
                                  qp=qp.qp_num, wr_id=wr.wr_id)
            retransmit = True
            latency = self.fabric.latency(self.node_id, remote.node_id)
            arrival = yield from self._chunk_train(qp, remote, ingress,
                                                   nbytes, latency)
            if faults is None:
                break
            lost = arrival is None
            if not lost and wr.opcode.consumes_recv_wr:
                dest_qp = remote.qps.get(qp.dest_qp_num)
                if (dest_qp is None
                        or dest_qp.state not in (QPState.RTR, QPState.RTS)):
                    # Dead responder: no ACK ever comes; timeout path.
                    lost = True
                elif (faults.rnr_forced(remote.node_id, dest_qp.qp_num,
                                        env.now)
                      or not dest_qp.rq):
                    # Receiver not ready: the responder NAKs, the
                    # requester backs off for the advertised RNR timer
                    # and retransmits the message.
                    counters.inc("ib.rnr_naks")
                    self.trace.record(env.now, "fault.rnr_nak", self.node_id,
                                      qp=qp.qp_num, wr_id=wr.wr_id)
                    if rnr_budget != 7:  # 7 = infinite, per IB spec
                        if rnr_budget == 0:
                            self._complete_error(
                                qp, wr, WCStatus.RNR_RETRY_EXC_ERR)
                            return
                        rnr_budget -= 1
                    nak_back = max(0.0, arrival + latency - env.now)
                    yield nak_back + self.config.nic.rnr_timer
                    continue
            if not lost:
                break
            if retry_budget == 0:
                self._complete_error(qp, wr, WCStatus.RETRY_EXC_ERR)
                return
            retry_budget -= 1
            yield qp.ack_timeout
        self._schedule_delivery(qp, wr, payload, nbytes, remote,
                                arrival, ack_latency=latency)

    def _transmit_routed(self, qp: QueuePair, wr: SendWR, payload,
                         nbytes: int, remote: "NIC"):
        """Wire transmission across a routed topology's shared links.

        After the usual NIC egress serialization each chunk claims every
        link on its route (leaf-up, optional global, leaf-down) for one
        occupancy, so concurrent flows crossing the same link genuinely
        queue behind each other.  The hop claims run in a spawned
        per-chunk forwarding process so chunks pipeline across hops
        (cut-through, not store-and-forward): an uncongested flow still
        sustains its injection rate regardless of hop count.  Per-link
        FIFO grants keep chunks in order — chunk *k* requests every hop
        before chunk *k+1* does (egress serializes the requests), so
        forwarding completes in chunk order and the last chunk's
        arrival schedules delivery.  The full propagation latency is
        applied once, at ingress, as on the quiet path — the per-hop
        claims model bandwidth sharing, not extra distance.  Entered
        only when the fabric topology is routed; latency-only fabrics
        never reach this path.
        """
        route = self.fabric.route_links(self.node_id, remote.node_id)
        if not route:
            # Same-leaf pair: no shared fabric link beyond the endpoint
            # NICs; identical timing to the quiet wire path.
            yield from self._transmit_wire(qp, wr, payload, nbytes, remote)
            return
        latency = self.fabric.latency(self.node_id, remote.node_id)
        ingress = remote.ingress_for(qp)
        state = {"pending": len(self.wires.chunks(nbytes))}
        yield from self._chunk_train(
            qp, remote, ingress, nbytes, latency,
            forward=lambda occupancy, chunk: self._forward_chunk(
                qp, wr, payload, nbytes, remote, route, occupancy, chunk,
                latency, ingress, state))

    def _forward_chunk(self, qp: QueuePair, wr: SendWR, payload, nbytes: int,
                       remote: "NIC", route, occupancy: float, chunk: int,
                       latency: float, ingress: IngressPort, state: dict):
        """One chunk's hop-by-hop traversal of its route's shared links.

        A chunk granted a link it had to wait for additionally pays the
        topology's per-chunk ``arbitration`` delay before its occupancy
        (contended-port hand-off; see
        :class:`repro.ib.topology.RoutedDragonflyPlus`).  Solo flows
        never wait — the sender egress already spaces chunks at line
        rate — so the quiet routed path never pays it.
        """
        env = self.env
        arbitration = self.fabric.link_arbitration
        for link in route:
            requested = env._now
            grant = link.resource.claim()
            if grant.callbacks is not None:
                yield grant
            if arbitration and env._now > requested:
                yield arbitration
            yield occupancy
            link.resource.release(grant)
            link.note(occupancy, chunk)
        arrival = ingress.admit(env._now - occupancy, occupancy, latency,
                                chunk)
        state["pending"] -= 1
        if state["pending"] == 0:
            self._schedule_delivery(qp, wr, payload, nbytes, remote,
                                    arrival, ack_latency=latency)

    def _transmit_loopback(self, qp: QueuePair, wr: SendWR, payload,
                           nbytes: int, remote: "NIC"):
        host = self.config.host
        link = self.config.link
        copy_time = nbytes / host.memcpy_rate
        yield copy_time
        arrival = self.env.now + link.loopback_latency
        self.bytes_transmitted += nbytes
        self._schedule_delivery(qp, wr, payload, nbytes, remote, arrival,
                                ack_latency=link.loopback_latency)

    def _execute_read(self, qp: QueuePair, wr: SendWR, nbytes: int,
                      remote: "NIC"):
        """RDMA READ: request travels out, data streams back.

        The responder's NIC sources the bytes with no responder CPU;
        response data is paced by the *responder-side* QP (the connected
        peer), shares the responder's egress wire, and serializes into
        this NIC's ingress.  Reads keep same-QP ordering: the
        transmitter stays on this WQE until the response completes, as
        RC read semantics require for following operations.  Fault-free
        the loop runs exactly once; under a fault schedule a lost
        request packet, a lost response chunk or a dead responder costs
        one ACK timeout and the whole read retries (``retry_cnt``).
        """
        cfg = self.config.nic
        env = self.env
        faults = self.fabric.faults
        retry_budget = qp.effective_retry_cnt
        retransmit = False
        while True:
            if qp.state is QPState.ERROR:
                self._flush_wr(qp, wr)
                return
            if retransmit:
                self.fabric.counters.inc("ib.retransmits")
                self.trace.record(env.now, "fault.retransmit", self.node_id,
                                  qp=qp.qp_num, wr_id=wr.wr_id)
            retransmit = True
            if remote is self:
                # Loopback read: a host-memory copy.
                yield (nbytes / self.config.host.memcpy_rate
                       + self.config.link.loopback_latency)
                break
            latency = self.fabric.latency(self.node_id, remote.node_id)
            # Request packet out through our egress.
            egress = self.egress_for(qp)
            grant = egress.claim()
            if grant.callbacks is not None:
                yield grant
            yield cfg.t_pkt
            egress.release(grant)
            lost = (faults is not None and faults.chunk_outcome(
                self.node_id, remote.node_id, env.now) is not CHUNK_OK)
            if not lost:
                extra = (0.0 if faults is None else faults.latency_extra(
                    self.node_id, remote.node_id, env.now))
                # Flight plus responder WQE handling.
                yield latency + extra + cfg.t_wqe
                responder_qp = remote.qps.get(qp.dest_qp_num)
                if responder_qp is None and faults is None:
                    raise ProtectionError(
                        f"no QP {qp.dest_qp_num} on node {remote.node_id}")
                # Under faults a dead responder never answers: timeout path.
                lost = faults is not None and (
                    responder_qp is None or responder_qp.state
                    not in (QPState.RTR, QPState.RTS))
            if not lost:
                arrival = yield from remote._chunk_train(
                    responder_qp, self, self.ingress_for(qp), nbytes, latency)
                lost = arrival is None
                if not lost and arrival > env._now:
                    yield arrival - env._now
            if not lost:
                break
            if retry_budget == 0:
                self._complete_error(qp, wr, WCStatus.RETRY_EXC_ERR)
                return
            retry_budget -= 1
            yield qp.ack_timeout
        # Source the bytes from the responder's memory and scatter them
        # into the local sink list.
        payload = None
        if nbytes > 0:
            responder_qp = remote.qps.get(qp.dest_qp_num)
            mr = responder_qp.pd.find_mr_by_rkey(wr.rkey)
            mr.check_remote_read(wr.remote_addr, nbytes, wr.rkey)
            payload = mr.buffer.read(mr.local_offset(wr.remote_addr), nbytes)
        cursor = 0
        for sge in wr.sg_list:
            if sge.length == 0:
                continue
            sink = qp.pd.find_mr_by_lkey(sge.lkey)
            piece = (payload[cursor : cursor + sge.length]
                     if payload is not None else None)
            sink.buffer.write(sink.local_offset(sge.addr), piece)
            cursor += sge.length
        qp.release_rdma_slot()
        if wr.signaled:
            yield cfg.t_cqe
            qp.send_cq.push(WorkCompletion(
                wr_id=wr.wr_id,
                status=WCStatus.SUCCESS,
                opcode=WCOpcode.RDMA_READ,
                qp_num=qp.qp_num,
                byte_len=nbytes,
                completed_at=env.now,
            ))

    def _complete_error(self, qp: QueuePair, wr: SendWR,
                        status: WCStatus) -> None:
        """Terminal transport failure: error CQE, then kill the QP.

        Error completions are always generated, signaled or not (as on
        hardware), and :meth:`QueuePair.to_error` then flushes both
        queues and wakes every parked slot waiter.
        """
        self.fabric.counters.inc("ib.retry_exhausted")
        self.trace.record(self.env.now, "ib.qp_error", self.node_id,
                          qp=qp.qp_num, wr_id=wr.wr_id,
                          status=status.value)
        qp.send_cq.push(WorkCompletion(
            wr_id=wr.wr_id,
            status=status,
            opcode=wr.opcode.wc_opcode,
            qp_num=qp.qp_num,
            completed_at=self.env.now,
        ))
        if qp.state is not QPState.ERROR:
            qp.to_error()

    def _flush_wr(self, qp: QueuePair, wr: SendWR) -> None:
        """Complete a send WR with WR_FLUSH_ERR on a killed QP."""
        if wr.opcode.is_rdma:
            qp.release_rdma_slot()
        if wr.signaled:
            qp.send_cq.push(WorkCompletion(
                wr_id=wr.wr_id,
                status=WCStatus.WR_FLUSH_ERR,
                opcode=wr.opcode.wc_opcode,
                qp_num=qp.qp_num,
                completed_at=self.env.now,
            ))

    def _gather(self, qp: QueuePair, wr: SendWR) -> Optional[np.ndarray]:
        """Snapshot the gather list (the DMA read), or None if phantom."""
        pieces = []
        for sge in wr.sg_list:
            if sge.length == 0:
                continue
            mr = qp.pd.find_mr_by_lkey(sge.lkey)
            view = mr.buffer.read(mr.local_offset(sge.addr), sge.length)
            if view is None:
                return None
            pieces.append(view)
        if not pieces:
            return np.empty(0, dtype=np.uint8)
        if len(pieces) == 1:
            return pieces[0].copy()
        return np.concatenate(pieces)

    # -- delivery / completion ------------------------------------------------

    def _schedule_delivery(self, qp: QueuePair, wr: SendWR, payload,
                           nbytes: int, remote: "NIC", arrival: float,
                           ack_latency: float) -> None:
        # A chain of timer callbacks, not a spawned process: deliveries
        # are fire-and-forget straight-line waits, so the generator
        # trampoline (bootstrap event, per-stage resume, completion
        # event) is pure overhead.  Each stage fires at the same virtual
        # time the process version reached it.
        env = self.env

        def on_arrival(_event):
            if self.fabric.faults is not None:
                # A QP that died while the message was in flight never
                # sees an ACK: drop it here and let channel recovery
                # replay the unacked WR after reconnect.
                dest_qp = remote.qps.get(qp.dest_qp_num)
                if (qp.state not in (QPState.RTS, QPState.RTR)
                        or dest_qp is None
                        or dest_qp.state not in (QPState.RTR, QPState.RTS)):
                    self.fabric.counters.inc("fault.deliveries_dropped")
                    return
            remote._deliver(qp, wr, payload, nbytes)
            # ACK returns to the sender; outstanding slot frees and the
            # sender-side completion (if signaled) is generated.
            env.timeout(ack_latency).callbacks.append(on_ack)

        def on_ack(_event):
            if wr.opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM):
                qp.release_rdma_slot()
            if wr.signaled:
                env.timeout(self.config.nic.t_cqe).callbacks.append(on_cqe)

        def on_cqe(_event):
            qp.send_cq.push(WorkCompletion(
                wr_id=wr.wr_id,
                status=WCStatus.SUCCESS,
                opcode=wr.opcode.wc_opcode,
                qp_num=qp.qp_num,
                byte_len=nbytes,
                completed_at=env.now,
            ))

        env.timeout(max(0.0, arrival - env.now)).callbacks.append(on_arrival)

    def _deliver(self, src_qp: QueuePair, wr: SendWR, payload, nbytes: int) -> None:
        """Inbound message: place data, consume RQ entry, raise CQE."""
        dest_qp = self.qps.get(src_qp.dest_qp_num)
        if dest_qp is None:
            raise ProtectionError(
                f"no QP {src_qp.dest_qp_num} on node {self.node_id}"
            )
        if dest_qp.state not in (QPState.RTR, QPState.RTS):
            raise ProtectionError(
                f"inbound message on QP {dest_qp.qp_num} in state "
                f"{dest_qp.state.value}"
            )
        self.messages_delivered += 1
        if wr.opcode in (Opcode.RDMA_WRITE, Opcode.RDMA_WRITE_WITH_IMM) and nbytes > 0:
            mr = dest_qp.pd.find_mr_by_rkey(wr.rkey)
            mr.check_remote_write(wr.remote_addr, nbytes, wr.rkey)
            mr.buffer.write(mr.local_offset(wr.remote_addr), payload)
        if self.trace.enabled:
            self.trace.record(self.env.now, "ib.deliver", self.node_id,
                              qp=dest_qp.qp_num, wr_id=wr.wr_id,
                              nbytes=nbytes)
        if wr.opcode.consumes_recv_wr:
            recv_wr = dest_qp.consume_recv()
            if wr.opcode in (Opcode.SEND, Opcode.SEND_WITH_IMM):
                # Channel semantics: the payload scatters into the
                # posted receive WR's local list.
                self._scatter_into_recv(dest_qp, recv_wr, payload, nbytes)
            env = self.env
            cfg = self.config.nic

            def on_cqe(_event):
                dest_qp.recv_cq.push(WorkCompletion(
                    wr_id=recv_wr.wr_id,
                    status=WCStatus.SUCCESS,
                    opcode=WCOpcode.RECV_RDMA_WITH_IMM
                    if wr.opcode is Opcode.RDMA_WRITE_WITH_IMM
                    else WCOpcode.RECV,
                    qp_num=dest_qp.qp_num,
                    byte_len=nbytes,
                    imm_data=wr.imm_data,
                    completed_at=env.now,
                ))

            # Plain timer callback: the CQE raise is a single fixed wait,
            # no process machinery needed.
            env.timeout(cfg.t_cqe).callbacks.append(on_cqe)

    def _scatter_into_recv(self, dest_qp: QueuePair, recv_wr, payload,
                           nbytes: int) -> None:
        """Place a two-sided SEND's payload into the receive WR's SGEs."""
        capacity = sum(sge.length for sge in recv_wr.sg_list)
        if nbytes > capacity:
            raise ProtectionError(
                f"SEND of {nbytes}B exceeds the posted receive WR's "
                f"{capacity}B (local length error)")
        remaining = nbytes
        cursor = 0
        for sge in recv_wr.sg_list:
            if remaining == 0:
                break
            take = min(sge.length, remaining)
            if take == 0:
                continue
            mr = dest_qp.pd.find_mr_by_lkey(sge.lkey)
            piece = (payload[cursor : cursor + take]
                     if payload is not None else None)
            mr.buffer.write(mr.local_offset(sge.addr), piece)
            cursor += take
            remaining -= take

    def __repr__(self) -> str:
        return f"<NIC node={self.node_id} qps={len(self.qps)}>"
