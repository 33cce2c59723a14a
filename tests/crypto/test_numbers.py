"""Tests for repro.crypto.numbers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.numbers import (
    egcd,
    is_probable_prime,
    mod_inverse,
    product,
    random_prime,
    random_safe_prime,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 997, 7919, 104729, 2**61 - 1, 2**89 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 9, 15, 100, 561, 41041, 825265, 2**61 + 1, 7919 * 104729]
# Carmichael numbers: strong-pseudoprime traps for naive Fermat tests.
CARMICHAELS = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341]


@pytest.mark.parametrize("p", KNOWN_PRIMES)
def test_known_primes_are_prime(p):
    assert is_probable_prime(p)


@pytest.mark.parametrize("c", KNOWN_COMPOSITES)
def test_known_composites_are_composite(c):
    assert not is_probable_prime(c)


@pytest.mark.parametrize("c", CARMICHAELS)
def test_carmichael_numbers_rejected(c):
    assert not is_probable_prime(c)


def test_negative_numbers_are_not_prime():
    assert not is_probable_prime(-7)


def test_random_prime_has_requested_bits():
    rng = random.Random(1)
    for bits in (8, 16, 32, 64, 128):
        p = random_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_random_prime_rejects_tiny_bits():
    with pytest.raises(ValueError):
        random_prime(1, random.Random(0))


def test_random_safe_prime_structure():
    rng = random.Random(2)
    p, q = random_safe_prime(32, rng)
    assert p == 2 * q + 1
    assert is_probable_prime(p)
    assert is_probable_prime(q)


def test_egcd_identity():
    g, x, y = egcd(240, 46)
    assert g == 2
    assert 240 * x + 46 * y == g


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
@settings(max_examples=200)
def test_egcd_bezout_property(a, b):
    g, x, y = egcd(a, b)
    assert a * x + b * y == g
    assert a % g == 0 and b % g == 0


def test_mod_inverse_round_trip():
    p = 104729
    for a in (1, 2, 3, 52364, 104728):
        inv = mod_inverse(a, p)
        assert (a * inv) % p == 1


def test_mod_inverse_raises_when_not_coprime():
    with pytest.raises(ZeroDivisionError):
        mod_inverse(6, 9)


def test_product():
    assert product([]) == 1
    assert product([3, 5, 7]) == 105
