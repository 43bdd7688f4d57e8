"""Tracing the program from outside: spans, a bucketed cProfile, and a
kernel profile attached to every ``Environment`` a pass creates.

Nothing under ``src/repro`` knows about any of this.  Spans are recorded in
the benchmark's own files around each call into a layer's public function;
the two profilers are switched on only in the traced passes, so end-to-end
metrics never pay for them.
"""

from __future__ import annotations

import cProfile
import os
import time
from contextlib import contextmanager

from perfbench import LAYERS


class Spans:
    """In-memory span list: ``[name, start, end, parent index]``.

    Timestamps are ``time.monotonic()``, which on Linux is one clock for
    every process, so the parent can lay its children's spans on one
    timeline.
    """

    def __init__(self):
        self.rows: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        self.rows.append([name, time.monotonic(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.rows[index][2] = time.monotonic()


def _layer_of(code, package_dir: str) -> str:
    """Attribution bucket of one profiled function, by its file path."""
    filename = getattr(code, "co_filename", "")
    if filename.startswith(package_dir):
        package = filename[len(package_dir):].split(os.sep, 1)[0]
        if package in LAYERS:
            return package
    return "other"


class LayerProfile:
    """cProfile over the timed pass, self time and calls bucketed by layer.

    cProfile charges every Python call but not work inside native code, so
    ``self_s`` is indicative; ``calls`` repeats exactly for a seed and is
    the count later changes may claim on.
    """

    def __init__(self):
        import repro

        self._package_dir = os.path.dirname(repro.__file__) + os.sep
        self._profile = cProfile.Profile()

    def __enter__(self):
        self._profile.enable()
        return self

    def __exit__(self, *exc):
        self._profile.disable()

    def buckets(self) -> dict:
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for entry in self._profile.getstats():
            bucket = out[_layer_of(entry.code, self._package_dir)]
            bucket["self_s"] += entry.inlinetime
            bucket["calls"] += entry.callcount
        return out


class KernelTrace:
    """Attach a ``KernelProfile`` to every ``Environment`` created inside
    the ``with`` block, and count work requests at ``QueuePair.post_send``.

    Both hooks wrap a public class attribute for the duration of the pass
    and restore it afterwards; the always-on counters ROADMAP asks for are a
    later change inside the program.
    """

    def __init__(self):
        self.profiles: list = []
        #: Work requests posted, keyed by the kind of the running point.
        self.wrs: dict[str, int] = {}
        self.point_kind = "native"

    def __enter__(self):
        from repro.ib.qp import QueuePair
        from repro.sim.core import Environment
        from repro.sim.profile import KernelProfile

        self._env_cls, self._qp_cls = Environment, QueuePair
        self._env_init, self._post_send = Environment.__init__, QueuePair.post_send
        trace = self

        def env_init(env, *args, **kwargs):
            trace._env_init(env, *args, **kwargs)
            trace.profiles.append(KernelProfile.attach(env))

        def post_send(qp, wr):
            trace.wrs[trace.point_kind] = trace.wrs.get(trace.point_kind, 0) + 1
            return trace._post_send(qp, wr)

        Environment.__init__ = env_init
        QueuePair.post_send = post_send
        return self

    def __exit__(self, *exc):
        self._env_cls.__init__ = self._env_init
        self._qp_cls.post_send = self._post_send

    def totals(self) -> dict:
        events = callbacks = 0
        dispatch_s = virtual_s = 0.0
        for profile in self.profiles:
            events += profile.events
            # Virtual time of the environment's last dispatched event.
            virtual_s += profile.last_dispatch or 0.0
            for stats in profile.stats.values():
                callbacks += stats.callbacks
                dispatch_s += stats.seconds
        return {"events": events, "callbacks": callbacks,
                "dispatch_s": dispatch_s,
                "virtual_s": virtual_s,
                "wrs": dict(self.wrs)}
