"""``batch_verify`` and fixed-base windows.

``batch_verify`` accepts exactly the batches whose every member verifies
on its own (it checks each through ``verify``), and a fixed-base window
of either shape — 8-bit digits, ``g``'s table, or 4-bit digits, a key's
— computes exactly ``pow``.  Which bases get a window, and for how long,
is ``test_key_windows.py``.
"""

import random

import pytest

from repro.crypto.group import NAMED_GROUP_NAMES, FixedBaseWindow, named_group
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature, scheme_for_group
from repro.perf import clear_all_caches

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

#: the two table shapes: g's (one row of 256 per exponent byte) and a
#: key's (two rows of 16 per byte)
WIDTHS = [4, 8]


def _edge_exponents(q, rng):
    """The reductions, the byte boundaries and random draws: 0, 1,
    q − 1, q, q + 1, −1 and 2q + 5; an exponent below q whose top byte
    (of q's length) is 0; the largest exponent below q whose bytes are
    all 0xFF; random exponents in [0, 3q)."""
    nbytes = (q.bit_length() + 7) // 8
    all_ff = max(256 ** k - 1 for k in range(1, nbytes + 1) if 256 ** k - 1 < q)
    top_byte_zero = rng.randrange(256 ** (nbytes - 2), 256 ** (nbytes - 1))
    fixed = [0, 1, q - 1, q, q + 1, -1, 2 * q + 5, top_byte_zero, all_ff]
    return fixed + [rng.randrange(0, 3 * q) for _ in range(30)]


def test_window_matches_pow_exhaustive_small():
    """A 19-bit order: three exponent bytes, so five nibbles and a sixth
    row that only ever reads digit 0."""
    for width in WIDTHS:
        window = FixedBaseWindow(base=3, modulus=1000003, order=500001, width=width)
        for e in list(range(600)) + [500000, 500001, 999999, 10**9, -1, -500002]:
            assert window.pow(e) == pow(3, e % 500001, 1000003)
        for e in _edge_exponents(500001, random.Random(width)):
            assert window.pow(e) == pow(3, e % 500001, 1000003)


def test_window_matches_pow_random_group_sized():
    rng = random.Random(77)
    window = FixedBaseWindow(GROUP.g, GROUP.p, GROUP.q, 4)
    for _ in range(200):
        e = rng.randrange(0, 2 * GROUP.q)
        assert window.pow(e) == pow(GROUP.g, e % GROUP.q, GROUP.p)


@pytest.mark.parametrize("width", WIDTHS)
def test_window_widths_agree(width):
    window = FixedBaseWindow(GROUP.g, GROUP.p, GROUP.q, width)
    rng = random.Random(width)
    for _ in range(20):
        e = rng.randrange(0, GROUP.q)
        assert window.pow(e) == pow(GROUP.g, e, GROUP.p)


@pytest.mark.parametrize("width", [-4, 0, 1, 2, 3, 5, 6, 7, 16])
def test_window_rejects_other_widths(width):
    with pytest.raises(ValueError):
        FixedBaseWindow(GROUP.g, GROUP.p, GROUP.q, width)


@pytest.mark.parametrize("name", NAMED_GROUP_NAMES)
def test_named_group_windows_match_pow(perf, name):
    """Every named group, toy64 included, goes through fixed-base windows
    in ``base_power`` (``g``'s 8-bit table) and ``fixed_power`` (a key's
    4-bit window); both compute exactly ``pow`` at every exponent of
    ``_edge_exponents``."""
    group = named_group(name)
    rng = random.Random(88)
    y = pow(group.g, rng.randrange(1, group.q), group.p)
    for e in _edge_exponents(group.q, rng):
        assert group.base_power(e) == pow(group.g, e % group.q, group.p)
        assert group.fixed_power(y, e) == pow(y, e % group.q, group.p)
    # the windows actually engaged, each in its shape
    assert group._g_table.width == 8
    assert group._base_windows[y].width == 4


def test_clear_all_caches_keeps_g_table(perf, monkeypatch):
    """``g``'s table is a parameter of the group: ``clear_all_caches``
    keeps it (no later ``base_power`` builds one) and drops every key's
    window."""
    group = named_group("toy256")
    table = group._g_table
    rng = random.Random(9)
    keys = [pow(group.g, rng.randrange(1, group.q), group.p) for _ in range(3)]
    for key in keys:
        group.fixed_power(key, 12345)
    assert set(keys) <= set(group._base_windows)
    built = []
    init = FixedBaseWindow.__init__

    def counting_init(self, base, *args):
        built.append(base)
        init(self, base, *args)

    monkeypatch.setattr(FixedBaseWindow, "__init__", counting_init)
    clear_all_caches()

    assert group._g_table is table
    assert group._base_windows == {}
    assert group.base_power(-7) == pow(group.g, -7 % group.q, group.p)
    assert built == []
    group.fixed_power(keys[0], 3)
    assert built == [keys[0]]  # a key's window comes back at its next use


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
