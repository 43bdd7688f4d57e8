"""Closed forms vs. the PLogGP recurrence (property-based)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.model import completion_time, many_before_one, simultaneous
from repro.model.closed_form import (
    early_bird_clears,
    optimal_partitions_sqrt_rule,
    simultaneous_completion,
    wide_window_completion,
)
from repro.model.loggp import LogGPParams
from repro.model.tables import NIAGARA_LOGGP, TABLE1_PAPER
from repro.units import KiB, MiB, us


PARAM_STRATEGY = st.builds(
    LogGPParams,
    L=st.floats(min_value=1e-7, max_value=5e-6),
    o_s=st.floats(min_value=1e-8, max_value=1e-5),
    o_r=st.floats(min_value=1e-8, max_value=2e-5),
    g=st.floats(min_value=1e-8, max_value=1e-5),
    G=st.floats(min_value=1e-11, max_value=1e-9),
)


@given(
    p=PARAM_STRATEGY,
    size_exp=st.integers(min_value=10, max_value=26),
    n_log=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_simultaneous_closed_form_matches_recurrence(p, size_exp, n_log):
    total = 2**size_exp
    n = 2**n_log
    closed = simultaneous_completion(p, total, n)
    recurrence = completion_time(p, total, n, simultaneous(n)).completion_time
    assert closed == pytest.approx(recurrence, rel=1e-9)


@given(
    p=PARAM_STRATEGY,
    size_exp=st.integers(min_value=10, max_value=26),
    n_log=st.integers(min_value=0, max_value=5),
    delay_us=st.floats(min_value=100.0, max_value=100_000.0),
)
@settings(max_examples=80, deadline=None)
def test_wide_window_closed_form_matches_recurrence(p, size_exp, n_log,
                                                    delay_us):
    total = 2**size_exp
    n = 2**n_log
    delay = delay_us * 1e-6
    if not early_bird_clears(p, total, n, delay):
        return  # closed form out of its validity regime
    closed = wide_window_completion(p, total, n, delay)
    recurrence = completion_time(
        p, total, n, many_before_one(n, delay)).completion_time
    assert closed == pytest.approx(recurrence, rel=1e-9)


def test_sqrt_rule_predicts_table1():
    """The sqrt rule, rounded to the nearest power of two *in log
    space* (T(P) vs T(2P) flips at cont/sqrt(2)), reproduces Table I."""
    for size, want in TABLE1_PAPER.items():
        cont = optimal_partitions_sqrt_rule(NIAGARA_LOGGP, size)
        predicted = 2 ** max(0, round(math.log2(cont)))
        predicted = max(1, min(32, predicted))
        assert predicted == want, f"{size}: sqrt rule {cont:.2f}"


def test_early_bird_clears_boundaries():
    # Tiny message, huge delay: clears trivially.
    assert early_bird_clears(NIAGARA_LOGGP, 64 * KiB, 8, 4e-3)
    # Huge message, tiny delay: cannot clear.
    assert not early_bird_clears(NIAGARA_LOGGP, 256 * MiB, 32, us(10))
    # Single partition always "clears" (nothing early to send).
    assert early_bird_clears(NIAGARA_LOGGP, 256 * MiB, 1, 0.0)


def test_sqrt_rule_zero_o_r():
    p = LogGPParams(L=1e-6, o_s=1e-6, o_r=0.0, g=1e-6, G=1e-10)
    assert optimal_partitions_sqrt_rule(p, 1 * MiB) == float("inf")
