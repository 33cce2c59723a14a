"""Tests for repro.crypto.hashing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    encode_for_hash,
    hash_chain,
    hash_to_int,
    prf,
    sha256,
    tagged_hash,
    xor_bytes,
)
from repro.crypto.schnorr import SchnorrSignature, SchnorrVerifyKey
from repro.perf.cache import canonical_body_key
from repro.sim.randomness import RandomnessSource


def test_tagged_hash_distinguishes_tags():
    assert tagged_hash("a", b"x") != tagged_hash("b", b"x")


def test_tagged_hash_distinguishes_chunk_boundaries():
    # length prefixing must prevent (b"ab", b"c") == (b"a", b"bc")
    assert tagged_hash("t", b"ab", b"c") != tagged_hash("t", b"a", b"bc")


def test_tagged_hash_deterministic():
    assert tagged_hash("t", b"x", b"y") == tagged_hash("t", b"x", b"y")


simple_values = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=64),
    st.integers(min_value=-(2**128), max_value=2**128),
    st.booleans(),
    st.none(),
)
nested_values = st.recursive(
    simple_values,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=10,
)


@given(nested_values, nested_values)
@settings(max_examples=300)
def test_encoding_is_injective_on_samples(a, b):
    def normalize(v):
        # a list and a tuple are distinct on the wire, and so are bool and
        # int, though Python compares them equal
        if isinstance(v, (list, tuple)):
            return (type(v).__name__, tuple(normalize(i) for i in v))
        return (type(v).__name__, v)

    if normalize(a) != normalize(b):
        assert encode_for_hash(a) != encode_for_hash(b)
    else:
        assert encode_for_hash(a) == encode_for_hash(b)


def test_encode_rejects_unknown_types():
    with pytest.raises(TypeError):
        encode_for_hash(object())


def test_encode_distinguishes_bool_from_int():
    assert encode_for_hash(True) != encode_for_hash(1)
    assert encode_for_hash(False) != encode_for_hash(0)


@pytest.mark.parametrize("value, lookalike", [
    ([1], (1,)),
    ([], ()),
    (SchnorrSignature(5, 7), (5, 7)),
    (SchnorrVerifyKey(5), (5,)),
    (SchnorrVerifyKey(5), SchnorrSignature(5, 7)),
])
def test_encode_tells_records_and_lists_from_tuples(value, lookalike):
    """A forged copy that swaps one of these for the other must never
    share a dedup key with the genuine message (docs/PROTOCOLS.md §12)."""
    assert encode_for_hash(value) != encode_for_hash(lookalike)
    assert encode_for_hash((0, value)) != encode_for_hash((0, lookalike))


def test_record_subclass_falls_back_to_repr():
    class Signature(SchnorrSignature):
        pass

    value = Signature(5, 7)
    with pytest.raises(TypeError):
        encode_for_hash(value)
    assert canonical_body_key(value) == repr(value)


def test_random_streams_are_unchanged():
    # the labels are encoded as a tuple; this value predates list tags
    assert RandomnessSource(0).stream("node-round", 1, 2).getrandbits(64) == 5607330623338008636


@given(st.integers(min_value=2, max_value=2**256))
@settings(max_examples=100)
def test_hash_to_int_in_range(modulus):
    value = hash_to_int("test", modulus, b"payload")
    assert 0 <= value < modulus


def test_hash_to_int_small_modulus_roughly_uniform():
    counts = [0, 0, 0]
    for i in range(900):
        counts[hash_to_int("uniform", 3, i)] += 1
    for count in counts:
        assert 200 < count < 400


def test_hash_to_int_rejects_degenerate_modulus():
    with pytest.raises(ValueError):
        hash_to_int("t", 1, b"")


def test_prf_keyed():
    assert prf(b"k1", "m") != prf(b"k2", "m")
    assert prf(b"k1", "m") == prf(b"k1", "m")


def test_hash_chain_links():
    chain = hash_chain(b"seed", 5)
    assert len(chain) == 5
    for previous, current in zip(chain, chain[1:]):
        assert current == sha256(previous)


def test_hash_chain_rejects_empty():
    with pytest.raises(ValueError):
        hash_chain(b"seed", 0)


def test_xor_bytes():
    assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
    with pytest.raises(ValueError):
        xor_bytes(b"a", b"ab")
