"""Every check equals checking its item alone, on values outside the
order-``q`` subgroup.

For the safe prime ``p = 2q + 1``, ``p − a`` is outside the subgroup
whenever ``a`` is inside it, and ``a + p`` is ``a`` modulo ``p``.  A
random-linear-combination batch raised such a value to a coefficient
``c``, and ``(−a)^c = a^c`` for every even ``c``, so it could accept what
the single check rejects.  Each check here runs on its own, so its
verdicts are those of the single check.
"""

import importlib
import random

import pytest

from repro.core.certify import certify, ver_cert_many
from repro.core.uls import build_uls_states
from repro.crypto.feldman import FeldmanCommitment, FeldmanDealer, verify_shares_batch
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature, SchnorrVerifyKey
from repro.pds.dealing import DealingRound

# the module, not the function repro.core re-exports under the same name
certify_module = importlib.import_module("repro.core.certify")

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2


def test_negated_commitment_element_is_checked_as_alone(perf):
    """Element 1 of the second zero dealing replaced by ``p − element``:
    still a zero dealing of degree t, and its sub-share fails alone."""
    dealer = FeldmanDealer(GROUP, n=N, threshold=T)
    rng = random.Random(0)
    first, second = dealer.deal_zero(rng), dealer.deal_zero(rng)
    elements = list(second.commitment.elements)
    elements[1] = GROUP.p - elements[1]
    negated = FeldmanCommitment(elements=tuple(elements))
    assert dealer.verify_zero_dealing(negated)
    items = [(first.commitment, first.shares[0]), (negated, second.shares[0])]
    alone = [commitment.verify_share(GROUP, share) for commitment, share in items]

    assert alone == [True, False]
    assert verify_shares_batch(GROUP, items) == alone
    # the same two dealings as one run of rf-zdeal bodies at receiver x = 1
    receiver = DealingRound(GROUP, N, T, me=0, zero=True)
    blamed = receiver.receive([
        (1, first.commitment.elements, first.shares[0].value),
        (2, negated.elements, second.shares[0].value),
    ])
    assert blamed == [2]


def _forge(signing_key, message: bytes, kind: str):
    """``(verify_key, signature)`` of one forgery built from an honest
    key pair: each satisfies ``g^s ≡ R·y^e (mod p)`` for the values it
    presents, or would in a batch whose coefficient is even."""
    p, q, y = GROUP.p, GROUP.q, signing_key.y
    for k in range(1, 1000):
        r = GROUP.base_power(k)
        if kind == "negated-commitment":  # docs/PROTOCOLS.md §12's forgery
            commitment, key = p - r, y
        elif kind == "commitment-plus-p":
            commitment, key = r + p, y
        else:  # "negated-key": p − y for an even e, where (p − y)^e = y^e
            commitment, key = r, p - y
        e = SCHEME.challenge(commitment, key, message)
        if kind != "negated-key" or e % 2 == 0:
            s = (k + e * signing_key.x) % q
            return SchnorrVerifyKey(y=key), SchnorrSignature(commitment, s)
    raise AssertionError("no even challenge")


FORGERIES = ["negated-commitment", "commitment-plus-p", "negated-key"]


@pytest.mark.parametrize("kind", FORGERIES)
def test_schnorr_forgery_outside_the_subgroup_is_rejected(perf, kind):
    public, _, keys = build_uls_states(GROUP, SCHEME, N, T, seed=11)
    honest = certify(SCHEME, keys[0], ("m", 0), 0, 1, 7)
    forged = list(certify(SCHEME, keys[2], ("m", 2), 2, 1, 7))
    body = certify_module._signed_bytes(*forged[:5])
    key, signature = _forge(keys[2].keypair.signing_key, body, kind)
    forged[5], forged[6] = signature, key

    assert not SCHEME.verify(key, body, signature)
    assert not SCHEME.batch_verify([(key, body, signature)])
    honest_body = certify_module._signed_bytes(*honest[:5])
    assert not SCHEME.batch_verify([
        (honest.verify_key, honest_body, honest.signature), (key, body, signature),
    ])
    results = ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                            expected_round=7, items=[(0, honest), (2, tuple(forged))])
    assert results[0] is honest
    assert results[1] is None
