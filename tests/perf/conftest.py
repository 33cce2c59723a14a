"""Perf-layer test isolation and per-item references.

The caches are process-global, so every test here runs against freshly
cleared caches (the ``perf`` fixture).  ``per_item`` hands every
round-wide check one item at a time and swaps the group's
exponentiation engine for plain ``pow``: the reference each round-wide
check must agree with verdict for verdict and blame for blame."""

import pytest

from repro.crypto.group import SchnorrGroup
from repro.crypto.schnorr import SchnorrScheme
from repro.pds import dealing
from repro.pds.threshold_schnorr import ThresholdSigner
from repro.perf import clear_all_caches
from tests.helpers import euler_member, pow_product


@pytest.fixture
def perf():
    """Cold caches before the test and none of its entries after it."""
    clear_all_caches()
    yield
    clear_all_caches()


def _per_share(group, items):
    return [commitment.verify_share(group, share) for commitment, share in items]


#: the group's engine, method by method, as plain ``pow`` expressions
PLAIN_POW_ENGINE = {
    "base_power": lambda group, e: pow(group.g, e % group.q, group.p),
    "fixed_power": lambda group, base, e: pow(base, e % group.q, group.p),
    "multi_power": pow_product,
    "is_member": euler_member,
}


@pytest.fixture
def per_item(monkeypatch):
    """A function that routes every round-wide check through one item
    at a time, with cold caches: ``batch_verify`` reports failure (so
    VER-CERT verifies each signature alone through ``cached_verify``),
    Feldman sub-shares are checked one by one, and partial signatures
    one emitter at a time.  Every exponentiation and membership check is
    plain ``pow``."""
    verify_partials = ThresholdSigner._verify_partials

    def one_at_a_time(self, sid, session, items):
        return [verify_partials(self, sid, session, [item])[0] for item in items]

    def apply():
        monkeypatch.setattr(SchnorrScheme, "batch_verify", lambda self, items: False)
        monkeypatch.setattr(dealing, "verify_shares_batch", _per_share)
        monkeypatch.setattr(ThresholdSigner, "_verify_partials", one_at_a_time)
        for name, plain in PLAIN_POW_ENGINE.items():
            monkeypatch.setattr(SchnorrGroup, name, plain)
        clear_all_caches()

    return apply
