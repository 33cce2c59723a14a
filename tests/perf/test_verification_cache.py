"""The signature-verification cache: soundness and lifecycle.

The security-critical properties (docs/PROTOCOLS.md §12): an outcome is
only cached under the exact ``(key, message, signature)`` triple, so a
forged signature can never be answered from the cache; negative results
are cached just as safely; and a key-rotation drops the superseded key's
bucket.
"""

import random

import pytest

from repro.core.keystore import KeyStore
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature
from repro.perf import cached_verify, verification_cache
from repro.perf.cache import VerificationCache

SCHEME = SchnorrScheme(named_group("toy64"))


@pytest.fixture
def pair():
    return SCHEME.generate(random.Random(11))


def test_positive_result_is_cached(perf, pair):
    cache = verification_cache()
    sig = SCHEME.sign(pair.signing_key, b"msg")
    assert cached_verify(SCHEME, pair.verify_key, b"msg", sig)
    before = cache.hits
    assert cached_verify(SCHEME, pair.verify_key, b"msg", sig)
    assert cache.hits == before + 1


def test_negative_result_is_cached(perf, pair):
    """A rejected signature is remembered as rejected — re-querying the
    identical triple must not re-run the verifier, and must stay False."""
    cache = verification_cache()
    sig = SCHEME.sign(pair.signing_key, b"msg")
    wrong = SchnorrSignature(commitment=sig.commitment, response=(sig.response + 1) % SCHEME.group.q)
    assert not cached_verify(SCHEME, pair.verify_key, b"msg", wrong)
    before = cache.hits
    assert not cached_verify(SCHEME, pair.verify_key, b"msg", wrong)
    assert cache.hits == before + 1


def test_forged_signature_never_served_from_cache(perf, pair):
    """An adversary's forgery differs from every previously verified
    triple in at least one component, so it always misses the cache and
    goes through the full verifier (which rejects it)."""
    cache = verification_cache()
    sig = SCHEME.sign(pair.signing_key, b"msg")
    assert cached_verify(SCHEME, pair.verify_key, b"msg", sig)

    q = SCHEME.group.q
    forgeries = [
        # same signature, different message
        (b"other msg", sig),
        # tweaked response, original message
        (b"msg", SchnorrSignature(commitment=sig.commitment, response=(sig.response + 1) % q)),
        # tweaked commitment, original message
        (b"msg", SchnorrSignature(commitment=SCHEME.group.power(sig.commitment, 2), response=sig.response)),
    ]
    for message, forged in forgeries:
        hits_before = cache.hits
        assert not cached_verify(SCHEME, pair.verify_key, message, forged)
        assert cache.hits == hits_before, "forgery must not hit the cache"


def test_unhashable_signature_skips_cache(perf, pair):
    cache = verification_cache()
    skips_before = cache.skips
    assert not cached_verify(SCHEME, pair.verify_key, b"msg", ["garbage", "off", "wire"])
    assert cache.skips == skips_before + 1


def test_rollover_invalidates_superseded_key(perf):
    """KeyStore.install_pending drops the old verification key's bucket."""
    cache = verification_cache()
    store = KeyStore(SCHEME)
    rng = random.Random(5)

    store.generate_pending(unit=1, rng=rng)
    assert store.install_pending(certificate="cert-1")
    old_key = store.current.keypair.verify_key
    sig = SCHEME.sign(store.current.keypair.signing_key, b"unit-1 msg")
    assert cached_verify(SCHEME, old_key, b"unit-1 msg", sig)
    old_bucket = SCHEME.key_repr(old_key)
    assert cache._buckets.get(old_bucket)

    store.generate_pending(unit=2, rng=rng)
    invalidations_before = cache.invalidations
    assert store.install_pending(certificate="cert-2")
    assert cache.invalidations == invalidations_before + 1
    assert old_bucket not in cache._buckets


def test_failed_rollover_still_invalidates(perf):
    """Even a refresh that ends with φ keys drops the old bucket."""
    cache = verification_cache()
    store = KeyStore(SCHEME)
    rng = random.Random(6)
    store.generate_pending(unit=1, rng=rng)
    assert store.install_pending(certificate="cert-1")
    key = store.current.keypair.verify_key
    sig = SCHEME.sign(store.current.keypair.signing_key, b"m")
    cached_verify(SCHEME, key, b"m", sig)
    bucket = SCHEME.key_repr(key)
    assert bucket in cache._buckets
    store.generate_pending(unit=2, rng=rng)
    assert not store.install_pending(certificate=None)
    assert bucket not in cache._buckets


def test_lru_bounds():
    cache = VerificationCache(max_keys=2, max_entries_per_key=3)
    for key in ("k1", "k2", "k3"):
        cache.store(key, b"m", "sig", True)
    assert len(cache._buckets) == 2
    assert "k1" not in cache._buckets  # oldest key evicted
    for i in range(5):
        cache.store("k3", b"m%d" % i, "sig", True)
    assert len(cache._buckets["k3"]) == 3
