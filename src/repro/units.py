"""Byte-size and time-unit helpers used throughout the package.

All simulated time is expressed in **seconds** (floats); all sizes in
**bytes** (ints).  These helpers exist so that experiment definitions read
like the paper ("128 user partitions of 4 KiB", "delta of 35 us") instead
of raw powers of two.
"""

from __future__ import annotations

# -- byte sizes -------------------------------------------------------------

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

# -- time -------------------------------------------------------------------

SECOND: float = 1.0
MILLISECOND: float = 1e-3
MICROSECOND: float = 1e-6
NANOSECOND: float = 1e-9


def ms(n: float) -> float:
    """``n`` milliseconds in seconds."""
    return n * MILLISECOND


def us(n: float) -> float:
    """``n`` microseconds in seconds."""
    return n * MICROSECOND


def ns(n: float) -> float:
    """``n`` nanoseconds in seconds."""
    return n * NANOSECOND


# -- formatting --------------------------------------------------------------


def fmt_bytes(nbytes: int) -> str:
    """Human-readable byte count using binary units, e.g. ``'128KiB'``.

    Sizes that are not an exact multiple of a unit get one decimal place.
    """
    if nbytes < 0:
        raise ValueError(f"negative byte count: {nbytes}")
    for unit, name in ((GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if nbytes >= unit:
            value = nbytes / unit
            if value == int(value):
                return f"{int(value)}{name}"
            return f"{value:.1f}{name}"
    return f"{nbytes}B"


def fmt_time(seconds: float) -> str:
    """Human-readable duration, e.g. ``'35us'``, ``'1.5ms'``, ``'2s'``."""
    if seconds < 0:
        raise ValueError(f"negative duration: {seconds}")
    for unit, name in ((1.0, "s"), (MILLISECOND, "ms"), (MICROSECOND, "us")):
        if seconds >= unit:
            value = seconds / unit
            if abs(value - round(value)) < 1e-9:
                return f"{int(round(value))}{name}"
            return f"{value:.3g}{name}"
    if seconds == 0:
        return "0s"
    return f"{seconds / NANOSECOND:.3g}ns"


def fmt_rate(bytes_per_second: float) -> str:
    """Human-readable bandwidth, e.g. ``'11.6GiB/s'``."""
    if bytes_per_second < 0:
        raise ValueError(f"negative rate: {bytes_per_second}")
    for unit, name in ((GiB, "GiB/s"), (MiB, "MiB/s"), (KiB, "KiB/s")):
        if bytes_per_second >= unit:
            return f"{bytes_per_second / unit:.3g}{name}"
    return f"{bytes_per_second:.3g}B/s"


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= ``n`` (n must be positive)."""
    if n <= 0:
        raise ValueError(f"need positive n, got {n}")
    return 1 << (n - 1).bit_length()


def powers_of_two(lo: int, hi: int) -> list[int]:
    """All powers of two ``p`` with ``lo <= p <= hi`` (inclusive)."""
    if lo <= 0:
        raise ValueError(f"need positive lo, got {lo}")
    out = []
    p = 1
    while p < lo:
        p <<= 1
    while p <= hi:
        out.append(p)
        p <<= 1
    return out
