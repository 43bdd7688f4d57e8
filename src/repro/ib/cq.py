"""Completion queues."""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque

from repro.ib.wr import WorkCompletion


class CompletionQueue:
    """A bounded FIFO of work completions (``ibv_cq``).

    Sits outside any PD, as in the verbs model.  Polling is free at the
    CQ itself; the host layer charges CPU time per poll (see
    :class:`repro.config.HostConfig`).
    """

    __slots__ = ("context", "capacity", "handle", "_entries", "on_push",
                 "total_completions", "overflows")

    _next_handle = 1

    def __init__(self, context, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"CQ capacity must be >= 1, got {capacity}")
        self.context = context
        self.capacity = capacity
        self.handle = CompletionQueue._next_handle
        CompletionQueue._next_handle += 1
        self._entries: Deque[WorkCompletion] = deque()
        #: Callbacks invoked, with no argument, on every push — the
        #: simulated analogue of a completion-channel notification, which
        #: carries no completion either; progress engines hook their kick
        #: latch here to wake instead of spin-polling idle stretches.
        self.on_push: list[Callable[[], None]] = []
        #: Total completions ever pushed (statistic).
        self.total_completions = 0
        #: Completions dropped because the CQ overflowed (a serious
        #: error on real hardware; tracked so tests can assert zero).
        self.overflows = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, wc: WorkCompletion) -> None:
        """NIC-side: deposit a completion."""
        if len(self._entries) >= self.capacity:
            self.overflows += 1
            return
        self._entries.append(wc)
        self.total_completions += 1
        for callback in self.on_push:
            callback()

    def poll(self, max_entries: int = 1) -> list[WorkCompletion]:
        """Host-side: pop up to ``max_entries`` completions (``ibv_poll_cq``)."""
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        entries = self._entries
        if not entries:
            return []
        out = []
        popleft = entries.popleft
        while entries and len(out) < max_entries:
            out.append(popleft())
        return out

    def __repr__(self) -> str:
        return f"<CQ handle={self.handle} depth={len(self._entries)}/{self.capacity}>"
