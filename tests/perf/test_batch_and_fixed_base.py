"""``batch_verify`` and fixed-base windows.

``batch_verify`` accepts exactly the batches whose every member verifies
on its own (it checks each through ``verify``), and a fixed-base window
computes exactly ``pow``.  Which bases get a window, and for how long, is
``test_key_windows.py``.
"""

import random

import pytest

from repro.crypto.group import NAMED_GROUP_NAMES, named_group
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature, scheme_for_group
from repro.perf import FixedBaseWindow

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)


def _batch(count, seed=21, message=b"batch item %d"):
    rng = random.Random(seed)
    items = []
    for i in range(count):
        pair = SCHEME.generate(rng)
        msg = message % i
        items.append((pair.verify_key, msg, SCHEME.sign(pair.signing_key, msg)))
    return items


# ------------------------------------------------------------- batch verify

def test_batch_accepts_all_valid(perf):
    assert SCHEME.batch_verify(_batch(8))


def test_batch_empty_is_valid(perf):
    assert SCHEME.batch_verify([])


def test_batch_rejects_single_bad_member(perf):
    """One bad signature anywhere in the batch fails the whole batch."""
    items = _batch(8)
    for position in (0, 3, 7):
        corrupted = list(items)
        key, msg, sig = corrupted[position]
        corrupted[position] = (
            key,
            msg,
            SchnorrSignature(commitment=sig.commitment, response=(sig.response + 1) % GROUP.q),
        )
        assert not SCHEME.batch_verify(corrupted)


def test_batch_rejects_swapped_messages(perf):
    items = _batch(4)
    k0, m0, s0 = items[0]
    k1, m1, s1 = items[1]
    items[0], items[1] = (k0, m1, s0), (k1, m0, s1)
    assert not SCHEME.batch_verify(items)


def test_batch_rejects_malformed_member(perf):
    items = _batch(3)
    items.append((items[0][0], b"m", "not-a-signature"))
    assert not SCHEME.batch_verify(items)


def test_batch_shared_key_aggregation(perf):
    """Many signatures under one key (the v_cert pattern) batch fine."""
    rng = random.Random(33)
    pair = SCHEME.generate(rng)
    items = []
    for i in range(10):
        msg = b"cert %d" % i
        items.append((pair.verify_key, msg, SCHEME.sign(pair.signing_key, msg)))
    assert SCHEME.batch_verify(items)
    key, msg, sig = items[5]
    items[5] = (key, msg, SchnorrSignature(commitment=sig.commitment, response=(sig.response + 1) % GROUP.q))
    assert not SCHEME.batch_verify(items)


def test_batch_deterministic_coefficients(perf):
    """The same batch always produces the same verdict (replay safety)."""
    items = _batch(5)
    verdicts = {SCHEME.batch_verify(items) for _ in range(3)}
    assert verdicts == {True}


def test_scheme_for_group_is_shared():
    assert scheme_for_group(GROUP) is scheme_for_group(named_group("toy64"))


# --------------------------------------------------------- fixed-base window

def test_window_matches_pow_exhaustive_small():
    window = FixedBaseWindow(base=3, modulus=1000003, order=500001, window=4)
    for e in list(range(64)) + [500000, 500001, 999999, 10**9]:
        assert window.pow(e) == pow(3, e % 500001, 1000003)


def test_window_matches_pow_random_group_sized():
    rng = random.Random(77)
    window = FixedBaseWindow(GROUP.g, GROUP.p, GROUP.q)
    for _ in range(200):
        e = rng.randrange(0, 2 * GROUP.q)
        assert window.pow(e) == pow(GROUP.g, e % GROUP.q, GROUP.p)


@pytest.mark.parametrize("width", [1, 2, 5, 8])
def test_window_widths_agree(width):
    window = FixedBaseWindow(GROUP.g, GROUP.p, GROUP.q, window=width)
    rng = random.Random(width)
    for _ in range(20):
        e = rng.randrange(0, GROUP.q)
        assert window.pow(e) == pow(GROUP.g, e, GROUP.p)


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_named_group_windows_match_pow(perf, name):
    """Every named group, toy64 included, goes through fixed-base windows
    in ``base_power`` and ``fixed_power``; both compute exactly ``pow``."""
    group = named_group(name)
    rng = random.Random(88)
    y = pow(group.g, rng.randrange(1, group.q), group.p)
    for _ in range(20):
        e = rng.randrange(0, 2 * group.q)
        assert group.base_power(e) == pow(group.g, e % group.q, group.p)
        assert group.fixed_power(y, e) == pow(y, e % group.q, group.p)
    assert group._g_window is not None  # the windows actually engaged
    assert y in group._base_windows


@pytest.mark.parametrize("name", ["toy64", "toy256"])
def test_batch_many_keys_matches_single_verify(perf, name):
    """Distinct keys, a shared key and a repeated signature in one batch:
    the batch accepts it, and each single flip of a response or message
    makes it fail, as single ``verify`` does."""
    scheme = SchnorrScheme(named_group(name))
    rng = random.Random(5)
    pairs = [scheme.generate(rng) for _ in range(6)]
    items = []
    for i in range(15):
        pair = pairs[i % len(pairs)]
        msg = b"item %d" % i
        items.append((pair.verify_key, msg, scheme.sign(pair.signing_key, msg)))
    items.append(items[3])
    assert all(scheme.verify(*item) for item in items)
    assert scheme.batch_verify(items)
    for position in (0, 7, 15):
        key, msg, sig = items[position]
        bad_response = SchnorrSignature(sig.commitment, (sig.response + 1) % scheme.group.q)
        assert not scheme.batch_verify(
            items[:position] + [(key, msg, bad_response)] + items[position + 1:]
        )
        assert not scheme.batch_verify(
            items[:position] + [(key, msg + b"!", sig)] + items[position + 1:]
        )
