"""Tests for unit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.units import (
    GiB,
    KiB,
    MiB,
    fmt_bytes,
    fmt_rate,
    fmt_time,
    is_power_of_two,
    ms,
    next_power_of_two,
    ns,
    powers_of_two,
    us,
)


def test_byte_constants():
    assert KiB == 1024
    assert MiB == 1024 * KiB
    assert GiB == 1024 * MiB


def test_time_helpers():
    assert ms(1) == pytest.approx(1e-3)
    assert us(35) == pytest.approx(35e-6)
    assert ns(100) == pytest.approx(1e-7)


def test_fmt_bytes():
    assert fmt_bytes(512) == "512B"
    assert fmt_bytes(4 * KiB) == "4KiB"
    assert fmt_bytes(128 * MiB) == "128MiB"
    assert fmt_bytes(2 * GiB) == "2GiB"
    assert fmt_bytes(1536) == "1.5KiB"


def test_fmt_bytes_negative():
    with pytest.raises(ValueError):
        fmt_bytes(-1)


def test_fmt_time():
    assert fmt_time(0) == "0s"
    assert fmt_time(1.0) == "1s"
    assert fmt_time(35e-6) == "35us"
    assert fmt_time(4e-3) == "4ms"
    assert fmt_time(1.5e-9) == "1.5ns"


def test_fmt_time_negative():
    with pytest.raises(ValueError):
        fmt_time(-1e-6)


def test_fmt_rate():
    assert fmt_rate(11.6 * GiB) == "11.6GiB/s"
    assert "MiB/s" in fmt_rate(500 * MiB)
    assert "B/s" in fmt_rate(10)


def test_is_power_of_two():
    assert all(is_power_of_two(1 << i) for i in range(20))
    assert not any(is_power_of_two(n) for n in (0, -1, 3, 6, 100))


def test_next_power_of_two():
    assert next_power_of_two(1) == 1
    assert next_power_of_two(3) == 4
    assert next_power_of_two(1024) == 1024
    assert next_power_of_two(1025) == 2048
    with pytest.raises(ValueError):
        next_power_of_two(0)


def test_powers_of_two():
    assert powers_of_two(1, 16) == [1, 2, 4, 8, 16]
    assert powers_of_two(3, 20) == [4, 8, 16]
    assert powers_of_two(5, 4) == []
    with pytest.raises(ValueError):
        powers_of_two(0, 8)


@given(st.integers(min_value=1, max_value=2**40))
def test_next_power_of_two_properties(n):
    p = next_power_of_two(n)
    assert is_power_of_two(p)
    assert p >= n
    assert p < 2 * n or n == 1
