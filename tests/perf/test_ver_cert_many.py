"""ver_cert_many must accept/reject exactly like sequential ver_cert.

The round-wide entry point is the transport hot path; these tests drive
it with mixed rounds — valid messages, forgeries, replays, garbage — and
compare index-by-index against sequential ``ver_cert`` from cold caches.
The comparison runs with either of its two shortcuts, the verification
cache and the one ``batch_verify`` call per step, replaced by its
fallback (every check verified in full; every batch reported failed, so
each signature is verified alone through ``cached_verify``), and with
both and neither kept.
"""

import importlib
import random

import pytest

from repro.core.certify import certify, ver_cert, ver_cert_many
from repro.core.uls import build_uls_states
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature
from repro.perf import clear_all_caches

# the module, not the function repro.core re-exports under the same name
certify_module = importlib.import_module("repro.core.certify")

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2


@pytest.fixture(scope="module")
def setup():
    return build_uls_states(GROUP, SCHEME, N, T, seed=11)


def _mixed_items(setup):
    """(alleged_source, raw) pairs spanning accept and every reject path."""
    _, _, keys = setup
    rng = random.Random(42)

    def make(source, destination=1, message=("body",), round_w=7):
        return certify(SCHEME, keys[source], message, source, destination, round_w)

    good0 = make(0)
    good2 = make(2, message=("other", 17))
    good3 = make(3)

    tampered = list(make(4))
    tampered[0] = ("tampered",)

    bad_sig = list(make(0, message=("forged target",)))
    sig = bad_sig[5]
    bad_sig[5] = SchnorrSignature(commitment=sig.commitment, response=(sig.response + 1) % GROUP.q)

    swapped_cert = list(make(2, message=("swap",)))
    swapped_cert[7] = keys[3].certificate

    foreign_pair = SCHEME.generate(rng)
    foreign = list(make(3, message=("foreign",)))
    foreign[5] = SCHEME.sign(foreign_pair.signing_key, b"whatever")
    foreign[6] = foreign_pair.verify_key

    return [
        (0, tuple(good0)),
        (0, tuple(good0)),            # duplicate receipt (cache hit path)
        (2, tuple(good2)),
        (4, tuple(tampered)),         # signature over different body
        (0, tuple(bad_sig)),          # corrupted signature
        (3, tuple(good3)),
        (1, tuple(good3)),            # wrong alleged source
        (2, tuple(swapped_cert)),     # certificate of another node
        (3, tuple(foreign)),          # uncertified key
        (0, "not even a tuple"),      # unparseable
        (0, tuple(make(0, round_w=5))),  # replay (wrong round)
    ]


def _sequential(setup, items):
    public, _, _ = setup
    return [
        ver_cert(SCHEME, public, receiver=1, alleged_source=src,
                 expected_unit=0, expected_round=7, raw=raw)
        for src, raw in items
    ]


#: which of ver_cert_many's optimisations each case keeps
KEPT = [
    pytest.param(dict(cache=False, batch=False), id="perf-off"),
    pytest.param(dict(cache=True, batch=True), id="perf-on"),
    pytest.param(dict(cache=True, batch=False), id="cache-only"),
    pytest.param(dict(cache=False, batch=True), id="batch-only"),
]


def _keep(monkeypatch, cache: bool, batch: bool) -> None:
    """Replace the optimisations not kept by their fallbacks."""
    clear_all_caches()
    if not cache:
        monkeypatch.setattr(certify_module, "lookup_verify", lambda *args: (None, None))
        monkeypatch.setattr(certify_module, "cached_verify",
                            lambda scheme, key, message, sig: scheme.verify(key, message, sig))
    if not batch:
        monkeypatch.setattr(SchnorrScheme, "batch_verify", lambda self, items: False)


@pytest.mark.parametrize("kept", KEPT)
def test_matches_sequential(perf, setup, monkeypatch, kept):
    public, _, _ = setup
    items = _mixed_items(setup)
    expected = _sequential(setup, items)

    _keep(monkeypatch, **kept)
    batched = ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                            expected_round=7, items=items)

    assert len(batched) == len(expected)
    for got, want in zip(batched, expected):
        if want is None:
            assert got is None
        else:
            assert got == want


@pytest.mark.parametrize("kept", KEPT)
def test_matches_sequential_warm_cache(perf, setup, monkeypatch, kept):
    """Same comparison with a pre-warmed cache (second identical round)."""
    public, _, _ = setup
    items = _mixed_items(setup)
    expected = _sequential(setup, items)
    _keep(monkeypatch, **kept)
    first = ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                          expected_round=7, items=items)
    second = ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                           expected_round=7, items=items)
    for got_1, got_2, want in zip(first, second, expected):
        assert (got_1 is None) == (want is None)
        assert (got_2 is None) == (want is None)


def test_all_good_batch(perf, setup):
    public, _, keys = setup
    items = [
        (i, tuple(certify(SCHEME, keys[i], ("m", i), i, 1, 7)))
        for i in range(N) if i != 1
    ]
    results = ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                            expected_round=7, items=items)
    assert all(msg is not None for msg in results)


def test_empty_items(perf, setup):
    public, _, _ = setup
    assert ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                         expected_round=7, items=[]) == []


def test_blame_attribution_on_failing_batch(perf, setup):
    """One bad signature in the round must reject only that message; the
    batch fails and the fallback attributes blame individually."""
    public, _, keys = setup
    good = [(i, tuple(certify(SCHEME, keys[i], ("m", i), i, 1, 7)))
            for i in (0, 2, 3)]
    bad = list(certify(SCHEME, keys[4], ("bad",), 4, 1, 7))
    sig = bad[5]
    bad[5] = SchnorrSignature(commitment=sig.commitment, response=(sig.response + 1) % GROUP.q)
    items = good[:2] + [(4, tuple(bad))] + good[2:]
    clear_all_caches()
    results = ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                            expected_round=7, items=items)
    assert results[0] is not None
    assert results[1] is not None
    assert results[2] is None
    assert results[3] is not None
