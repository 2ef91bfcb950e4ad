"""Multi-index enumeration, block membership, and binomial identities."""

import math
from itertools import product

import pytest

import lattice_identities as li

from cylasym import multiindex as mi


def brute_force_upto(n, m):
    """Independent oracle: nested product, filtered, no ordering assumptions."""
    return {alpha for alpha in product(range(m + 2), repeat=n) if sum(alpha) <= m}


def binom_via_polynomial(alpha, alpha_prime):
    """Oracle: coefficient of prod x_i^{alpha'_i} in prod (1+x_i)^{alpha_i}.

    Expands each factor by repeated convolution so the result never touches
    math.comb.
    """
    out = 1
    for a, ap in zip(alpha, alpha_prime):
        coeffs = [1]
        for _ in range(a):
            coeffs = [x + y for x, y in zip(coeffs + [0], [0] + coeffs)]
        out *= coeffs[ap]
    return out


def test_enumerate_upto_n2_m2_exact_order():
    assert mi.enumerate_upto(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_enumerate_upto_n3_m2_count():
    # brute-force oracle says 10; the binomial closed form agrees
    got = mi.enumerate_upto(3, 2)
    assert len(got) == 10
    assert set(got) == brute_force_upto(3, 2)


@pytest.mark.parametrize("n,m", [(1, 0), (1, 4), (2, 3), (3, 2), (4, 3)])
def test_enumerate_count_and_order(n, m):
    got = mi.enumerate_upto(n, m)
    assert len(got) == math.comb(n + m, n)
    assert set(got) == brute_force_upto(n, m)
    keys = [(sum(a), a) for a in got]
    assert keys == sorted(keys)
    assert len(set(got)) == len(got)


def test_enumerate_rejects_bad_args():
    with pytest.raises(ValueError):
        mi.enumerate_upto(0, 2)
    with pytest.raises(ValueError):
        mi.enumerate_upto(2, -1)


def test_block_membership():
    # n = 2, p = 1: (1, 0) is axial, (0, 1) is cross-sectional, zero is both
    assert mi.in_N1((1, 0), 1)
    assert not mi.in_N1((0, 1), 1)
    assert mi.in_N2((0, 1), 1)
    assert not mi.in_N2((1, 0), 1)
    assert mi.in_N1((0, 0), 1) and mi.in_N2((0, 0), 1)


def test_block_membership_p2():
    assert mi.in_N1((2, 1, 0), 2)
    assert not mi.in_N1((0, 1, 1), 2)
    assert mi.in_N2((0, 0, 3), 2)


def test_multi_binom_example():
    assert li.multi_binom((3, 2), (1, 1)) == 6
    assert binom_via_polynomial((3, 2), (1, 1)) == 6


def test_multi_binom_rejects_non_sub_index():
    with pytest.raises(ValueError):
        li.multi_binom((1, 0), (0, 1))
    with pytest.raises(ValueError):
        li.multi_binom((2,), (3,))


@pytest.mark.parametrize("alpha", [(0,), (3,), (1, 1), (2, 3), (2, 1, 2)])
def test_multi_binom_matches_polynomial_oracle(alpha):
    for ap in li.sub_indices(alpha):
        assert li.multi_binom(alpha, ap) == binom_via_polynomial(alpha, ap)


def test_sub_indices_example():
    assert li.sub_indices((1, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("alpha", [(2,), (1, 2), (2, 2), (1, 1, 1), (3, 0, 2)])
def test_binomial_row_sum(alpha):
    # sum over alpha' <= alpha of multi_binom is prod 2^{alpha_i} = 2^{|alpha|}
    subs = li.sub_indices(alpha)
    assert len(subs) == math.prod(a + 1 for a in alpha)
    assert sum(li.multi_binom(alpha, ap) for ap in subs) == 2 ** mi.order(alpha)


def test_add_sub_roundtrip():
    assert mi.add((1, 2), (0, 1)) == (1, 3)
    assert li.sub((1, 3), (0, 1)) == (1, 2)
    with pytest.raises(ValueError):
        li.sub((1, 0), (0, 1))
    with pytest.raises(ValueError):
        mi.add((1, 0), (1,))


@pytest.mark.parametrize("alpha", [(0, 0), (2, 0), (1, 2, 3)])
def test_encode_decode_roundtrip(alpha):
    text = mi.encode(alpha)
    assert mi.decode(text) == alpha
    assert mi.decode(text, n=len(alpha)) == alpha


def test_encode_example():
    assert mi.encode((2, 0)) == "2_0"


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        mi.decode("2_x")
    with pytest.raises(ValueError):
        mi.decode("1_-1")
    with pytest.raises(ValueError):
        mi.decode("1_2", n=3)
