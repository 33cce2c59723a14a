"""Number-theoretic primitives used by every scheme in this package.

Everything here is implemented from scratch on top of Python integers:
Miller--Rabin primality testing, prime and safe-prime generation, modular
inverses, and square-and-multiply helpers.  These are the foundations for
the Schnorr groups (:mod:`repro.crypto.group`), RSA
(:mod:`repro.crypto.rsa`) and the secret-sharing arithmetic
(:mod:`repro.crypto.shamir`).

All generation functions take an explicit ``random.Random`` instance so
executions of the simulator are reproducible from a single seed (the
paper's model hands each node an explicit random tape ``r_i``).
"""

from __future__ import annotations

import random
from typing import Iterable

__all__ = [
    "is_probable_prime",
    "random_prime",
    "random_safe_prime",
    "mod_inverse",
    "egcd",
    "product",
]

# Small primes used for fast trial division before Miller--Rabin.
_SMALL_PRIMES: tuple[int, ...] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

# Deterministic Miller--Rabin witness sets.  For n < 3.3e24 the first set
# is a proven deterministic test; for larger n we add random witnesses.
_DETERMINISTIC_WITNESSES: tuple[int, ...] = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite.

    ``n - 1 = d * 2**r`` with ``d`` odd.
    """
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_probable_prime(n: int, rounds: int = 24, rng: random.Random | None = None) -> bool:
    """Miller--Rabin primality test.

    Deterministic (and exact) for ``n`` below ~3.3e24; probabilistic with
    ``rounds`` random witnesses above that, giving error probability at
    most ``4**-rounds``.

    Args:
        n: candidate integer.
        rounds: number of random witnesses for large ``n``.
        rng: randomness source for witness selection (a fresh one is
            created when omitted; witness choice does not need to be
            reproducible for correctness).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    if n < _DETERMINISTIC_BOUND:
        witnesses: Iterable[int] = _DETERMINISTIC_WITNESSES
    else:
        rng = rng or random.Random()
        witnesses = list(_DETERMINISTIC_WITNESSES)
        witnesses += [rng.randrange(2, n - 1) for _ in range(rounds)]

    for a in witnesses:
        a %= n
        if a in (0, 1, n - 1):
            continue
        if _miller_rabin_witness(n, a, d, r):
            return False
    return True


def random_prime(bits: int, rng: random.Random) -> int:
    """Sample a uniformly-ish random prime of exactly ``bits`` bits."""
    if bits < 2:
        raise ValueError(f"cannot generate a prime of {bits} bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate):
            return candidate


def random_safe_prime(bits: int, rng: random.Random) -> tuple[int, int]:
    """Sample a safe prime ``p = 2q + 1``; returns ``(p, q)``.

    Safe primes give Schnorr groups whose prime-order subgroup has index 2,
    which keeps subgroup-membership checks trivial.  Generation is slow for
    large ``bits``; the named groups in :mod:`repro.crypto.group` cache
    precomputed parameters for production sizes.
    """
    if bits < 4:
        raise ValueError(f"cannot generate a safe prime of {bits} bits")
    while True:
        q = random_prime(bits - 1, rng)
        p = 2 * q + 1
        if is_probable_prime(p):
            return p, q


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a*x + b*y = g = gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
        old_y, y = y, old_y - quotient * y
    return old_r, old_x, old_y


def mod_inverse(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``modulus``.

    Raises:
        ZeroDivisionError: if ``gcd(a, modulus) != 1``.
    """
    g, x, _ = egcd(a % modulus, modulus)
    if g != 1:
        raise ZeroDivisionError(f"{a} has no inverse modulo {modulus} (gcd={g})")
    return x % modulus


def product(values: Iterable[int]) -> int:
    """Product of an iterable of integers (1 for empty input)."""
    result = 1
    for value in values:
        result *= value
    return result
