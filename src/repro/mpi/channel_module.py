"""The last-resort ``channels`` module: ``part_persist`` with rendezvous off.

The bottom rung of the graceful-degradation ladder
(:mod:`repro.mpi.ladder`): :class:`PersistModule` with two differences.
Every partition, whatever its size, is one eager ``PART_DATA`` write
over the process pair's shared p2p :class:`~repro.mpi.endpoint.Channel`
(whose pump, flow control, and replay tracker already exist and
already survive reconnects), charged at its size's UCX tier.  And
``setup`` creates **no new IB resources at all**: no read rails, only
the cached buffer registrations.

Skipping the RTS/READ/ATS handshake makes it the least-exposed rung,
not the slowest (above 8 KiB it beats ``part_persist`` in a quiet
pair): an edge whose dedicated QPs keep dying can always fall back to
here, because "here" needs nothing beyond what plain eager p2p needs.
"""

from __future__ import annotations

from dataclasses import replace

from repro.mpi.modules import ModuleSpec
from repro.mpi.persist_module import PersistModule


class ChannelModule(PersistModule):
    """Per-partition eager transport over the shared p2p channel."""

    def __init__(self, cluster, send_req, recv_req):
        super().__init__(cluster, send_req, recv_req)
        self._proto = replace(self._proto, rendezvous=False)

    def setup(self, send_req, recv_req) -> None:
        self.channel = self.sender.channel_to(self.receiver.rank)
        self.send_mr = self.sender._register(send_req.buf)
        self.recv_mr = self.receiver._register(recv_req.buf,
                                               remote_write=True)


class ChannelSpec(ModuleSpec):
    """Spec for the channels module (pass to both init calls)."""

    name = "channels"

    def create(self, cluster, send_req, recv_req):
        return ChannelModule(cluster, send_req, recv_req)
