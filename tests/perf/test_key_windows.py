"""Fixed-base windows only for keys in force.

``SchnorrGroup.fixed_power`` keeps a window per base it raises.  VER-CERT
raises a local key only after its certificate verified, so an injected
message under a fresh key builds no window.  The two rotation hooks drop
the windows of superseded keys: ``invalidate_verify_key`` (local keys, on
``KeyStore.install_pending``) and ``ShareImageCache.invalidate`` (key
images, on ``PdsNodeState.install_share``).  So at most ``2n + 1``
windows are live — ``n`` local keys, ``n`` key images and ``v_cert`` —
and each is built once.
"""

import random

import pytest

from repro.core.certify import certify, ver_cert_many
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.feldman import FeldmanDealer
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature
from repro.perf import FixedBaseWindow
from repro.perf.share_image import share_image_value
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner
from tests.helpers import pow_product

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2


@pytest.fixture
def built(monkeypatch):
    """The bases of the windows built from now on, and after each build
    the number of pooled windows (``g``'s own is kept apart)."""
    bases: list[int] = []
    live: list[int] = []
    init = FixedBaseWindow.__init__

    def counting_init(self, base, *args, **kwargs):
        bases.append(base)
        if base != GROUP.g:
            live.append(len(GROUP._base_windows) + 1)  # this one joins the pool
        init(self, base, *args, **kwargs)

    monkeypatch.setattr(FixedBaseWindow, "__init__", counting_init)
    return bases, live


def test_ver_cert_builds_windows_only_for_certified_keys(perf, built):
    public, _, keys = build_uls_states(GROUP, SCHEME, N, T, seed=11)
    rng = random.Random(8)
    honest = [(i, certify(SCHEME, keys[i], ("m", i), i, 1, 7)) for i in (0, 2, 3)]
    # a fresh key with a forged certificate, and a fresh key carrying
    # node 3's honest certificate
    forged_cert = list(certify(SCHEME, keys[4], ("flood", 4), 4, 1, 7))
    fresh = SCHEME.generate(rng)
    forged_cert[5] = SCHEME.sign(fresh.signing_key, b"whatever")
    forged_cert[6] = fresh.verify_key
    forged_cert[7] = SchnorrSignature(GROUP.g, 5)
    borrowed_cert = list(certify(SCHEME, keys[3], ("flood", 3), 3, 1, 7))
    other = SCHEME.generate(rng)
    borrowed_cert[5] = SCHEME.sign(other.signing_key, b"whatever")
    borrowed_cert[6] = other.verify_key
    items = honest + [(4, tuple(forged_cert)), (3, tuple(borrowed_cert))]
    bases, _ = built

    results = ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                            expected_round=7, items=items)

    assert [msg is not None for msg in results] == [True, True, True, False, False]
    assert sorted(base for base in bases if base != GROUP.g) == sorted(
        [public.public_key] + [keys[i].keypair.verify_key.y for i in (0, 2, 3)]
    )
    for injected in (fresh, other):
        assert injected.verify_key.y not in GROUP._base_windows


@pytest.mark.parametrize("name", ["toy64", "toy256"])
def test_share_images_build_no_window(perf, monkeypatch, name):
    """Share images raise commitment elements to short exponents
    ``x^k ≤ n^t``, with plain ``pow``."""
    group = named_group(name)
    dealing = FeldmanDealer(group, n=7, threshold=2).deal(5, random.Random(21))
    built = []
    init = FixedBaseWindow.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FixedBaseWindow, "__init__", counting_init)
    for x in range(1, 8):
        share_image_value(group, dealing.commitment.elements, x)
    assert built == []


def test_refresh_drops_superseded_windows(perf, built):
    """A ULS run over two units (one refresh): the unit-0 local keys and
    key images keep no window, at most 2n + 1 windows are ever live, and
    no window is built twice."""
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=3)
    old_keys = {k.keypair.verify_key.y for k in keys}
    old_elements = states[0].key_commitment.elements
    old_images = {
        pow_product(GROUP, [(element, x ** k) for k, element in enumerate(old_elements)])
        for x in range(1, N + 1)
    }
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    ULRunner(programs, PassiveAdversary(), uls_schedule(), s=T, seed=3).run(units=2)
    bases, live = built

    assert all(status == "ok" for p in programs for _, status in p.core.keystore.history)
    # the superseded keys were in force, and raised, in unit 0
    assert old_keys <= set(bases) and old_images <= set(bases)
    assert not (old_keys | old_images) & set(GROUP._base_windows)
    assert max(live) <= 2 * N + 1
    assert len(bases) == len(set(bases))
