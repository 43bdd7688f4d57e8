"""Named workload profiles: paper-scale vs. fast (reduced) presets.

The iteration counts and message-size grids every benchmark shares
live here, once.  The experiment registry builds each experiment from
whichever profile the caller selects (``repro-bench bench run
--profile paper|fast``).

Iteration counts follow the paper where tractable: point-to-point
micro-benchmarks use 10 warm-up + 100 measured iterations, sweeps use
3 + 10 (Section V-A).  The ``fast`` profile is the reduced preset used
by the guideline checks, the golden bit-identity guard, and CI.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import KiB, MiB


@dataclass(frozen=True)
class Profile:
    """One named set of shared benchmark knobs."""

    name: str
    #: Point-to-point micro-benchmark iterations (Figs. 6-8).
    ptp_iterations: int
    ptp_warmup: int
    #: Sweep/halo pattern iterations (Fig. 14).
    sweep_iterations: int
    sweep_warmup: int
    #: Perceived-bandwidth iterations (Figs. 9-13).
    perceived_iterations: int
    perceived_warmup: int
    #: Message-size grids.
    overhead_sizes: tuple[int, ...]
    perceived_sizes: tuple[int, ...]
    sweep_sizes: tuple[int, ...]

    @property
    def ptp_iter(self) -> dict:
        """Keyword form for ``run_overhead``-style calls."""
        return dict(iterations=self.ptp_iterations, warmup=self.ptp_warmup)

    @property
    def sweep_iter(self) -> dict:
        return dict(iterations=self.sweep_iterations,
                    warmup=self.sweep_warmup)


#: The paper's compute/noise point for Figs. 9-13 (Section V-A).
PERCEIVED_COMPUTE = 100e-3
PERCEIVED_NOISE = 0.04

PAPER = Profile(
    name="paper",
    ptp_iterations=100, ptp_warmup=10,
    sweep_iterations=10, sweep_warmup=3,
    perceived_iterations=10, perceived_warmup=3,
    overhead_sizes=(1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB,
                    512 * KiB, 2 * MiB, 4 * MiB, 16 * MiB),
    perceived_sizes=(1 * MiB, 4 * MiB, 8 * MiB, 32 * MiB, 128 * MiB),
    sweep_sizes=(64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB, 16 * MiB),
)

FAST = Profile(
    name="fast",
    ptp_iterations=10, ptp_warmup=2,
    sweep_iterations=3, sweep_warmup=1,
    perceived_iterations=5, perceived_warmup=2,
    overhead_sizes=(4 * KiB, 64 * KiB, 512 * KiB, 4 * MiB),
    perceived_sizes=(1 * MiB, 8 * MiB, 32 * MiB),
    sweep_sizes=(256 * KiB, 1 * MiB),
)

PROFILES: dict[str, Profile] = {p.name: p for p in (PAPER, FAST)}


def get_profile(name: str) -> Profile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; have {sorted(PROFILES)}") from None
