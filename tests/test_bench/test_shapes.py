"""Shape tests: the paper's qualitative results must hold.

These are the reproduction's acceptance tests — each asserts a
direction or ordering the paper reports, at reduced iteration counts.
"""

from repro.bench import run_overhead, run_perceived_bandwidth
from repro.bench.perceived import single_thread_line
from repro.core import (
    NoAggregation,
    PLogGPAggregator,
    TimerPLogGPAggregator,
)
from repro.model.tables import NIAGARA_LOGGP
from repro.units import KiB, MiB, ms, us

ITER = dict(iterations=10, warmup=2)


def ploggp():
    return PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))


def timer(delta=us(35)):
    return TimerPLogGPAggregator(NIAGARA_LOGGP, delay=ms(4), delta=delta)


def speedups(module, n_user, sizes):
    """Speedup over ``part_persist`` per size: one run_overhead pair each."""
    return {size: run_overhead(None, n_user=n_user, total_bytes=size,
                               **ITER).mean_time
            / run_overhead(module, n_user=n_user, total_bytes=size,
                           **ITER).mean_time
            for size in sizes}


# ---------------------------------------------------------------------------
# Fig. 6/8: overhead speedups
# ---------------------------------------------------------------------------


def test_aggregation_beats_baseline_at_medium_sizes_32_parts():
    """Fig. 8 @32: clear speedup in the medium range."""
    series = speedups(ploggp(), 32, [64 * KiB, 128 * KiB])
    assert all(s > 1.5 for s in series.values())


def test_speedup_fades_at_wire_saturation():
    """Fig. 6/8: speedup ~1.0 once the wire saturates (>= 4 MiB)."""
    series = speedups(ploggp(), 32, [4 * MiB, 16 * MiB])
    assert all(0.9 < s < 1.2 for s in series.values())


def test_peak_speedup_in_medium_range():
    """The speedup curve peaks between small and saturated sizes."""
    sizes = [1 * KiB, 64 * KiB, 8 * MiB]
    series = speedups(ploggp(), 32, sizes)
    assert series[64 * KiB] > series[1 * KiB]
    assert series[64 * KiB] > series[8 * MiB]


def test_few_balanced_partitions_gain_little():
    """Fig. 8 @4 partitions: no win at tiny sizes, none at saturation;
    a narrow benefit band in between (widest right at the rendezvous
    protocol switch, as the paper's spike discussion notes)."""
    series = speedups(ploggp(), 4, [1 * KiB, 64 * KiB, 4 * MiB])
    assert series[1 * KiB] < 1.1
    assert series[4 * MiB] < 1.1
    # 64 KiB sits right on the rendezvous protocol switch (16 KiB
    # partitions), where speedup spikes — the paper notes the same
    # protocol-switch spikes in its own curves.
    assert series[64 * KiB] < 2.8


def test_oversubscription_amplifies_gain():
    """Fig. 8 @128: oversubscribed threads (128 > 40 cores) make the
    baseline's per-message lock contention worse, growing the win."""
    s32 = speedups(ploggp(), 32, [128 * KiB])[128 * KiB]
    s128 = speedups(ploggp(), 128, [128 * KiB])[128 * KiB]
    assert s128 > s32


# ---------------------------------------------------------------------------
# Fig. 7: QP counts
# ---------------------------------------------------------------------------


def test_one_qp_sufficient_for_small_messages():
    """16 partitions, no aggregation: QP count hardly matters small."""
    size = 16 * KiB
    t1 = run_overhead(NoAggregation(n_qps=1), n_user=16,
                      total_bytes=size, **ITER).mean_time
    t16 = run_overhead(NoAggregation(n_qps=16), n_user=16,
                       total_bytes=size, **ITER).mean_time
    assert abs(t1 - t16) / t1 < 0.25


def test_more_qps_win_for_large_messages():
    """Past ~64 KiB partitions prefer concurrency (Fig. 7)."""
    size = 16 * MiB
    t1 = run_overhead(NoAggregation(n_qps=1), n_user=16,
                      total_bytes=size, **ITER).mean_time
    t16 = run_overhead(NoAggregation(n_qps=16), n_user=16,
                       total_bytes=size, **ITER).mean_time
    assert t16 < t1 * 0.95


# ---------------------------------------------------------------------------
# Fig. 9/13: perceived bandwidth
# ---------------------------------------------------------------------------


PERC = dict(compute=20e-3, noise_fraction=0.04, iterations=5, warmup=2)


def test_early_bird_exceeds_single_thread_line():
    """All designs perceive more bandwidth than one thread could get,
    for medium sizes."""
    line = single_thread_line()
    for module in (None, ploggp(), timer()):
        r = run_perceived_bandwidth(module, n_user=32,
                                    total_bytes=8 * MiB, **PERC)
        assert r.perceived_bandwidth > line


def test_ploggp_perceives_less_than_persistent():
    """Fig. 9: aggregation inflates the last transport partition."""
    base = run_perceived_bandwidth(None, n_user=32, total_bytes=8 * MiB,
                                   **PERC)
    agg = run_perceived_bandwidth(ploggp(), n_user=32, total_bytes=8 * MiB,
                                  **PERC)
    assert agg.perceived_bandwidth < base.perceived_bandwidth


def test_timer_recovers_ploggp_shortfall():
    """Fig. 9: the timer design sends the laggard alone, perceiving
    close to (or better than) the persistent implementation."""
    base = run_perceived_bandwidth(None, n_user=32, total_bytes=8 * MiB,
                                   **PERC)
    agg = run_perceived_bandwidth(ploggp(), n_user=32, total_bytes=8 * MiB,
                                  **PERC)
    # Laggard delay here is 20ms x 4% = 800us; delta must undercut it
    # for the flush path to engage (the paper's 3000us delta plays the
    # same role against its 4ms laggard).
    tmr = run_perceived_bandwidth(timer(us(300)), n_user=32,
                                  total_bytes=8 * MiB, **PERC)
    assert tmr.perceived_bandwidth > agg.perceived_bandwidth
    assert tmr.perceived_bandwidth > 0.7 * base.perceived_bandwidth


def test_large_messages_converge_to_line():
    """Fig. 9 right edge: at 128 MiB everyone is wire-limited."""
    line = single_thread_line()
    for module in (None, ploggp(), timer(us(3000))):
        r = run_perceived_bandwidth(module, n_user=32,
                                    total_bytes=128 * MiB, **PERC)
        assert r.perceived_bandwidth < 2.5 * line


def test_delta_window_insensitive():
    """Fig. 13: delta in {10, 35, 100} us changes perceived bandwidth
    by only a few percent."""
    values = []
    for delta in (us(10), us(35), us(100)):
        r = run_perceived_bandwidth(timer(delta), n_user=32,
                                    total_bytes=8 * MiB, **PERC)
        values.append(r.perceived_bandwidth)
    spread = (max(values) - min(values)) / min(values)
    assert spread < 0.15
