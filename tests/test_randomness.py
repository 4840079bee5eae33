"""Bit source: exactness, bit accounting, determinism."""

import math
from collections import Counter

import pytest
from scipy.stats import chi2

from flygraph import BitSource, COPY, DIRECT


def test_flag_constants():
    assert DIRECT == 0
    assert COPY == 1


def test_bits_range_and_accounting():
    src = BitSource(1)
    for k in (1, 3, 7, 13, 64, 100):
        before = src.bits_consumed
        x = src.bits(k)
        assert 0 <= x < (1 << k)
        assert src.bits_consumed - before == k


def test_zero_bits_free():
    src = BitSource(2)
    assert src.bits(0) == 0
    assert src.bits_consumed == 0


def test_bits_negative_rejected():
    with pytest.raises(ValueError):
        BitSource(0).bits(-1)


def test_uniform_int_m_nonpositive_rejected():
    src = BitSource(0)
    with pytest.raises(ValueError):
        src.uniform_int(0)
    with pytest.raises(ValueError):
        src.uniform_int(-3)


def test_uniform_int_trivial_and_power_of_two_costs():
    src = BitSource(3)
    assert src.uniform_int(1) == 0
    assert src.bits_consumed == 0
    src.uniform_int(2)
    assert src.bits_consumed == 1
    src.uniform_int(8)
    assert src.bits_consumed == 4
    src.uniform_flag()
    assert src.bits_consumed == 5


def loop_width_uniform_int(src, m):
    """uniform_int with its rejection width found by counting up, as first written."""
    if m == 1:
        return 0
    have = 1
    x = 0
    while True:
        k = 0
        while (have << k) < m:
            k += 1
        x = (x << k) | src.bits(k)
        have <<= k
        if x < m:
            return x
        have -= m
        x -= m


def test_uniform_int_matches_loop_width():
    sizes = list(range(1, 400)) + [1 << e for e in range(9, 70, 3)]
    sizes += [(1 << e) + d for e in (10, 31, 64) for d in (-1, 1)]
    for m in sizes:
        fast, slow = BitSource(m), BitSource(m)
        for _ in range(50):
            assert fast.uniform_int(m) == loop_width_uniform_int(slow, m), m
            assert fast.bits_consumed == slow.bits_consumed, m


def test_determinism_and_independence():
    a = BitSource(99)
    b = BitSource(99)
    seq_a = [a.uniform_int(m) for m in (2, 3, 5, 17, 1000)] + [a.bits(11)]
    seq_b = [b.uniform_int(m) for m in (2, 3, 5, 17, 1000)] + [b.bits(11)]
    assert seq_a == seq_b
    c = BitSource(100)
    seq_c = [c.uniform_int(m) for m in (2, 3, 5, 17, 1000)] + [c.bits(11)]
    assert seq_a != seq_c


@pytest.mark.parametrize("m", [2, 3])
def test_uniform_int_chi_square_million(m):
    src = BitSource(7 + m)
    draws = 1_000_000
    counts = Counter(src.uniform_int(m) for _ in range(draws))
    assert set(counts) <= set(range(m))
    expected = draws / m
    stat = sum((counts[v] - expected) ** 2 / expected for v in range(m))
    p = chi2.sf(stat, m - 1)
    assert p > 1e-6, (dict(counts), p)


@pytest.mark.parametrize("m", [3, 5, 6, 9, 100, 1000])
def test_uniform_int_expected_bits_bound(m):
    src = BitSource(31 * m)
    draws = 200_000
    before = src.bits_consumed
    for _ in range(draws):
        src.uniform_int(m)
    mean_bits = (src.bits_consumed - before) / draws
    assert mean_bits <= math.ceil(math.log2(m)) + 2


@pytest.mark.parametrize("m", [5, 9, 17, 1000])
def test_uniform_int_full_support(m):
    src = BitSource(m)
    seen = {src.uniform_int(m) for _ in range(200 * m)}
    assert seen == set(range(m))


def test_flag_balance():
    src = BitSource(1234)
    draws = 1_000_000
    ones = sum(src.uniform_flag() for _ in range(draws))
    assert src.bits_consumed == draws
    assert abs(ones - draws / 2) < 4 * (draws ** 0.5) / 2
