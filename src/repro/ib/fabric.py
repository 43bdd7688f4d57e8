"""The fabric: nodes, NICs, and inter-node latency.

The paper's platform is a Dragonfly+ EDR fabric with full bisection
bandwidth at the scales evaluated; we model it as a non-blocking
crossbar with uniform latency, or per-pair latency from a topology.
"""

from __future__ import annotations

from typing import Optional

from repro.config import ClusterConfig, NIAGARA
from repro.errors import ConfigError
from repro.ib.nic import NIC
from repro.sim.core import Environment
from repro.sim.monitor import Counters, Trace


class Fabric:
    """A set of nodes joined by a non-blocking interconnect."""

    def __init__(self, env: Environment, config: Optional[ClusterConfig] = None,
                 trace: Optional[Trace] = None, topology=None):
        self.env = env
        self.config = config if config is not None else NIAGARA
        self.config.validate()
        self.trace = trace if trace is not None else Trace(
            enabled=self.config.trace_enabled)
        #: Optional :class:`repro.ib.topology.Topology`; None = uniform
        #: latency from the link config.
        self.topology = topology
        #: Shared-link contention queues, keyed by topology link key.
        #: Built only for *routed* topologies; None means the fabric is
        #: latency-only and the NICs take the quiet transmit path with
        #: bit-identical timing to a build without the link layer.
        self.links = None
        self._routes: dict[tuple[int, int], tuple] = {}
        #: Per-chunk contended-grant delay (see RoutedDragonflyPlus).
        self.link_arbitration = 0.0
        if topology is not None and getattr(topology, "routed", False):
            from repro.ib.link import LinkQueue

            self.links = {key: LinkQueue(env, key)
                          for key in topology.link_keys()}
            self.link_arbitration = getattr(topology, "arbitration", 0.0)
        self._nics: dict[int, NIC] = {}
        #: Fault/retry/reconnect counters; always present, cheap to bump.
        self.counters = Counters()
        #: Installed :class:`repro.faults.FaultInjector`, or None.  The
        #: NIC engines check this once per WR; when None, the fault-free
        #: transmit paths run and virtual time is bit-identical to a
        #: build without the fault subsystem.
        self.faults = None

    def install_faults(self, schedule):
        """Arm a :class:`repro.faults.FaultSchedule` on this fabric.

        Its draws come from a substream factory derived from the
        configured root seed, so the same seed + schedule produce a
        bit-identical fault pattern.  Returns the bound injector.
        """
        from repro.faults.schedule import FaultInjector
        from repro.sim.rng import RngStreams

        rngs = RngStreams(self.config.seed).spawn("faults")
        self.faults = FaultInjector(schedule, rngs, self.counters,
                                    trace=self.trace)
        return self.faults

    def add_node(self, node_id: Optional[int] = None) -> NIC:
        """Create a node with one NIC; returns the NIC."""
        if node_id is None:
            node_id = len(self._nics)
        if node_id in self._nics:
            raise ConfigError(f"node {node_id} already exists")
        nic = NIC(self.env, self, node_id, self.config, self.trace)
        self._nics[node_id] = nic
        return nic

    def nic_at(self, node_id: int) -> NIC:
        try:
            return self._nics[node_id]
        except KeyError:
            raise ConfigError(f"no node {node_id} in fabric") from None

    @property
    def n_nodes(self) -> int:
        return len(self._nics)

    def route_links(self, src: int, dst: int) -> tuple:
        """Link queues the (src, dst) path crosses, in hop order.

        Only meaningful on routed topologies (``self.links`` is not
        None); the resolution is memoized per ordered pair.
        """
        route = self._routes.get((src, dst))
        if route is None:
            keys = self.topology.route(src, dst)
            route = self._routes[(src, dst)] = tuple(
                self.links[key] for key in keys)
        return route

    def link_stats(self, makespan: float) -> dict:
        """Per-link occupancy stats, keyed by printable link name."""
        if self.links is None:
            return {}
        return {"/".join(str(part) for part in key): link.stats(makespan)
                for key, link in self.links.items()}

    def latency(self, src: int, dst: int) -> float:
        """One-way propagation latency between two nodes.

        Resolution order: loopback, topology model, uniform link
        default.
        """
        if src == dst:
            return self.config.link.loopback_latency
        if self.topology is not None:
            return self.topology.latency(src, dst)
        return self.config.link.latency

    def close(self) -> None:
        """Drop the NIC and QP tables, whose entries point back here."""
        for nic in self._nics.values():
            nic.qps.clear()
        self._nics.clear()

    def __repr__(self) -> str:
        return f"<Fabric nodes={self.n_nodes}>"
