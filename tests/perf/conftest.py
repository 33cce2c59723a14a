"""Perf-layer test isolation and per-item references.

The caches are process-global, so every test here runs against freshly
cleared caches (the ``perf`` fixture).  ``per_item`` swaps every batched
verifier for its per-item fallback, the reference each batch path must
agree with verdict for verdict and blame for blame."""

import pytest

from repro.crypto.schnorr import SchnorrScheme
from repro.pds import dkg, refresh
from repro.pds.threshold_schnorr import ThresholdSigner
from repro.perf import clear_all_caches


@pytest.fixture
def perf():
    """Cold caches before the test and none of its entries after it."""
    clear_all_caches()
    yield
    clear_all_caches()


def _per_share(group, items):
    return [commitment.verify_share(group, share) for commitment, share in items]


@pytest.fixture
def per_item(monkeypatch):
    """A function that routes every batched check through its per-item
    fallback, with cold caches: Schnorr batches report failure (so
    VER-CERT verifies each signature alone), Feldman sub-shares are
    checked one by one, and partial signatures one emitter at a time."""
    verify_partials = ThresholdSigner._verify_partials

    def one_at_a_time(self, sid, session, items):
        return [verify_partials(self, sid, session, [item])[0] for item in items]

    def apply():
        monkeypatch.setattr(SchnorrScheme, "batch_verify", lambda self, items: False)
        monkeypatch.setattr(refresh, "verify_shares_batch", _per_share)
        monkeypatch.setattr(dkg, "verify_shares_batch", _per_share)
        monkeypatch.setattr(ThresholdSigner, "_verify_partials", one_at_a_time)
        clear_all_caches()

    return apply
