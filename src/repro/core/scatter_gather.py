"""The scatter/gather flush the paper rejected (Section IV-D), as an
ablation beside the native module: a δ-timer flush of non-contiguous
runs posts ONE multi-SGE WR into receive-side staging, and the receiver
copies it into place from a layout looked up by the immediate."""

from __future__ import annotations

from repro.core.module import NativeSpec, NativeVerbsModule
from repro.errors import PartitionError
from repro.ib.constants import ACCESS_LOCAL, ACCESS_REMOTE_WRITE, Opcode
from repro.ib.wr import SGE, SendWR
from repro.mem.buffer import Buffer


class ScatterGatherModule(NativeVerbsModule):
    """The native module with gathered flushes into receive staging."""

    #: Immediate "start" marking a staging message (so no partition's).
    _SG_MARKER = 0xFFFF

    def setup(self, send_req, recv_req) -> None:
        if send_req.n_partitions > self._SG_MARKER:
            raise PartitionError(
                f"{send_req.n_partitions} partitions: partition "
                f"{self._SG_MARKER} would post the staging marker")
        super().setup(send_req, recv_req)
        self._staging = Buffer(2 * recv_req.buf.nbytes,
                               backed=self.cluster.config.real_buffers)
        self._staging_mr = self.recv_qps[0].pd.reg_mr(
            self._staging, ACCESS_LOCAL | ACCESS_REMOTE_WRITE)
        self._staging_head = 0
        self._sg_layouts: dict[int, tuple] = {}
        self._sg_seq = 0

    def _post_unsent_runs(self, group: int):
        runs = self._collect_unsent_runs(group)
        if len(runs) < 2:
            yield from super()._post_unsent_runs(group)
            return
        for start, count in runs:  # all marked sent before any yield
            self._sent[start : start + count] = True
        if not self._credit.ready(self.send_req.round):
            # Queued as plain runs: the grouping chance is gone by then.
            for run in runs:
                self._credit.defer(run)
            return
        # WR build cost grows with the gather-list length.
        yield from self._issue_wr(*runs, extra_cost=50e-9 * len(runs))

    def _build_wr(self, wr_id: int, runs: tuple) -> SendWR:
        if len(runs) == 1:
            return super()._build_wr(wr_id, runs)
        psize = self.send_req.partition_size
        total = sum(count for _, count in runs) * psize
        if self._staging_head + total > self._staging.nbytes:
            self._staging_head = 0
        staging_offset = self._staging_head
        self._staging_head += total
        seq = self._sg_seq = (self._sg_seq + 1) & 0xFFFF or 1
        self._sg_layouts[seq] = (runs, staging_offset)
        return SendWR(
            wr_id=wr_id,
            opcode=Opcode.RDMA_WRITE_WITH_IMM,
            sg_list=[SGE(self.send_mr.addr + start * psize, count * psize,
                         self.send_mr.lkey) for start, count in runs],
            remote_addr=self._staging_mr.addr + staging_offset,
            rkey=self._staging_mr.rkey,
            imm_data=(self._SG_MARKER << 16) | seq,
        )

    def _on_recv_wc(self, wc):
        if not wc.ok or (wc.imm_data >> 16) != self._SG_MARKER:
            yield from super()._on_recv_wc(wc)
            return
        runs, cursor = self._sg_layouts.pop(wc.imm_data & 0xFFFF)
        buf = self.recv_req.buf
        total = sum(count for _, count in runs) * buf.partition_size
        # Layout handling per run, plus the staging copy-out — the
        # receive-side costs that made the paper reject this design.
        yield (self.receiver.config.part.t_rx_wr * len(runs)
               + total / self.receiver.config.host.memcpy_rate)
        for start, count in runs:
            offset, length = buf.range_offset(start, count)
            buf.write(offset, self._staging.read(cursor, length))
            cursor += length
            self.recv_req.mark_arrived(start, count)


class ScatterGatherSpec(NativeSpec):
    """Spec for :class:`ScatterGatherModule`; same aggregator both sides."""

    name = "native_verbs_sg"
    module_class = ScatterGatherModule
