"""The classic LogGP model (Alexandrov et al., 1997).

Parameters:

* ``L`` — network latency;
* ``o_s`` / ``o_r`` — sender / receiver processor overhead per message;
* ``g`` — minimum gap between successive message injections;
* ``G`` — time per byte for long messages (1 / bandwidth);

The paper measures these with Netgauge's MPI module and feeds them to
the PLogGP extension (Section III).  Because measured values vary with
message size (protocol switches), a :class:`LogGPTable` keyed by
message size mirrors the paper's "hash table where the key is the
message size and the value is the set of LogGP parameters"
(Section IV-C).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class LogGPParams:
    """One LogGP parameter set.  Times in seconds, G in seconds/byte."""

    L: float
    o_s: float
    o_r: float
    g: float
    G: float

    def __post_init__(self):
        if min(self.L, self.o_s, self.o_r, self.g, self.G) < 0:
            raise ConfigError(f"LogGP parameters must be non-negative: {self}")

    @property
    def bandwidth(self) -> float:
        """Asymptotic bandwidth in bytes/second."""
        if self.G == 0:
            return float("inf")
        return 1.0 / self.G


def ptp_time(p: LogGPParams, nbytes: int) -> float:
    """LogGP time for one point-to-point message of ``nbytes``.

    ``o_s + (k-1)G + L + o_r`` — the standard long-message form.
    """
    if nbytes < 0:
        raise ValueError(f"negative message size: {nbytes}")
    wire = max(0, nbytes - 1) * p.G
    return p.o_s + wire + p.L + p.o_r


def back_to_back_time(p: LogGPParams, nbytes: int, count: int) -> float:
    """Time for ``count`` back-to-back messages of ``nbytes`` each.

    Generalizes the paper's Fig. 2 (two messages):
    ``o_s + count*G(k-1) + (count-1)*max(g, o_s, o_r) + L + o_r``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    wire_each = max(0, nbytes - 1) * p.G
    gap = max(p.g, p.o_s, p.o_r)
    return p.o_s + count * wire_each + (count - 1) * gap + p.L + p.o_r


class LogGPTable:
    """Message-size-keyed LogGP parameters.

    Lookup returns the entry for the largest key not exceeding the
    requested size (sizes below the smallest key use the smallest).
    """

    def __init__(self, entries: dict[int, LogGPParams]):
        if not entries:
            raise ConfigError("LogGPTable needs at least one entry")
        for size in entries:
            if size <= 0:
                raise ConfigError(f"table keys must be positive sizes, got {size}")
        self._sizes = sorted(entries)
        self._entries = dict(entries)

    def lookup(self, nbytes: int) -> LogGPParams:
        """Parameters applicable to a message of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        idx = bisect.bisect_right(self._sizes, nbytes) - 1
        if idx < 0:
            idx = 0
        return self._entries[self._sizes[idx]]

    @property
    def sizes(self) -> list[int]:
        return list(self._sizes)

    def __len__(self) -> int:
        return len(self._sizes)

    def __repr__(self) -> str:
        return f"<LogGPTable sizes={self._sizes}>"
