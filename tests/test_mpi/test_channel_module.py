"""The channels rung is part_persist's eager path, size for size."""

import pytest

from repro.bench.pair import run_partitioned_pair
from repro.mpi.channel_module import ChannelSpec
from repro.mpi.persist_module import PersistSpec
from repro.runtime.noise import SingleThreadDelay
from repro.units import KiB, us


@pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("psize", [256, 512, 1 * KiB, 2 * KiB, 4 * KiB,
                                   8 * KiB])
def test_eager_tiers_match_part_persist(psize, noisy):
    """Up to 8 KiB both rungs are the same eager transport — the
    eager/bcopy staging copy included — so round times agree bit for
    bit."""
    kwargs = dict(n_user=8, partition_size=psize, iterations=3, warmup=1)
    if noisy:
        kwargs.update(compute=us(100), noise=SingleThreadDelay(0.04))
    channels = run_partitioned_pair(ChannelSpec, **kwargs)
    persist = run_partitioned_pair(PersistSpec, **kwargs)
    assert channels.times == persist.times
