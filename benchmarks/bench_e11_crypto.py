"""E11 — cryptographic substrate microbenchmarks.

Costs of the primitives everything else is built from, across security
parameters: centralized signing/verification (Schnorr at three group
sizes, RSA-FDH, hash-based), batched Schnorr verification (one
multi-exponentiation), Feldman share verification, and the threshold
combine step (Lagrange interpolation) as a function of t.
"""

import random

import pytest

from repro.crypto.feldman import FeldmanDealer
from repro.crypto.group import named_group
from repro.crypto.hash_sig import MerkleSignatureScheme
from repro.crypto.rsa import RsaFdhScheme
from repro.crypto.schnorr import SchnorrScheme

MESSAGE = b"the public key of N_3 in time unit 7 is v"


@pytest.mark.parametrize("group_name", ["toy64", "toy256", "toy512"])
def test_schnorr_sign(benchmark, group_name):
    scheme = SchnorrScheme(named_group(group_name))
    pair = scheme.generate(random.Random(1))
    benchmark(lambda: scheme.sign(pair.signing_key, MESSAGE))


@pytest.mark.parametrize("group_name", ["toy64", "toy256", "toy512"])
def test_schnorr_verify(benchmark, group_name):
    scheme = SchnorrScheme(named_group(group_name))
    pair = scheme.generate(random.Random(1))
    signature = scheme.sign(pair.signing_key, MESSAGE)
    benchmark(lambda: scheme.verify(pair.verify_key, MESSAGE, signature))
    assert scheme.verify(pair.verify_key, MESSAGE, signature)


@pytest.mark.parametrize("group_name", ["toy64", "toy256", "toy512"])
def test_schnorr_batch_verify(benchmark, group_name):
    """15 signatures shaped like one round of VER-CERT: every other one
    under a shared key (the certificates under ``v_cert``), the rest
    under distinct keys (the message signatures)."""
    scheme = SchnorrScheme(named_group(group_name))
    rng = random.Random(6)
    shared = scheme.generate(rng)
    items = []
    for i in range(15):
        pair = shared if i % 2 else scheme.generate(rng)
        message = MESSAGE + b" #%d" % i
        items.append((pair.verify_key, message, scheme.sign(pair.signing_key, message)))
    assert benchmark(lambda: scheme.batch_verify(items))


def test_rsa_fdh_sign(benchmark):
    scheme = RsaFdhScheme(modulus_bits=512)
    pair = scheme.generate(random.Random(2))
    benchmark(lambda: scheme.sign(pair.signing_key, MESSAGE))


def test_merkle_lamport_verify(benchmark):
    scheme = MerkleSignatureScheme(capacity=8)
    pair = scheme.generate(random.Random(3))
    signature = scheme.sign(pair.signing_key, MESSAGE)
    benchmark(lambda: scheme.verify(pair.verify_key, MESSAGE, signature))


@pytest.mark.parametrize("t", [2, 4, 8])
def test_feldman_share_verification(benchmark, t):
    group = named_group("toy64")
    n = 2 * t + 1
    dealer = FeldmanDealer(group, n=n, threshold=t)
    dealing = dealer.deal(12345, random.Random(4))
    share = dealing.shares[0]
    benchmark(lambda: dealing.commitment.verify_share(group, share))


@pytest.mark.parametrize("t", [2, 4, 8])
def test_threshold_combine(benchmark, t):
    """The Lagrange interpolation that assembles a signature from t+1
    partial signatures."""
    group = named_group("toy64")
    field = group.scalar_field
    rng = random.Random(5)
    poly = field.random_polynomial(t, rng, constant=777)
    points = [(x, poly.evaluate(x)) for x in range(1, t + 2)]
    result = benchmark(lambda: field.interpolate_at_zero(points))
    assert result == 777
