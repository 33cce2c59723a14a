"""Input guards inside the threshold signer.

``_group_nonce`` must reject qualified sets with duplicate dealers, which
would double-count a dealer's nonce contribution.
"""

import random

import pytest

from repro.crypto.feldman import FeldmanDealer
from repro.crypto.group import named_group
from repro.pds.dealing import DealingRound
from repro.pds.keys import deal_initial_states
from repro.pds.threshold_schnorr import ThresholdSigner, _Session
from repro.pds.transport import DirectTransport

GROUP = named_group("toy64")


def _signer_with_session(seed=0):
    rng = random.Random(seed)
    public, states = deal_initial_states(GROUP, n=5, threshold=2, rng=rng)
    signer = ThresholdSigner(states[0], DirectTransport())
    session = _Session(
        message_bytes=b"m", start_round=0, nonces=DealingRound(GROUP, 5, 2, me=0)
    )
    dealer = FeldmanDealer(GROUP, n=5, threshold=2)
    for d in range(1, 4):
        dealing = dealer.deal(rng.randrange(GROUP.q), rng)
        session.nonces.dealings[d] = (dealing.commitment, dealing.shares[0].value)
    return signer, session


def test_group_nonce_rejects_duplicate_dealers():
    signer, session = _signer_with_session()
    with pytest.raises(ValueError, match="duplicate dealers"):
        signer._group_nonce(session, (1, 1))
    with pytest.raises(ValueError, match="duplicate dealers"):
        signer._group_nonce(session, (2, 3, 2))


def test_group_nonce_is_product_of_public_constants():
    signer, session = _signer_with_session(seed=1)
    expected = GROUP.multiply(
        session.nonces.dealings[1][0].public_constant,
        session.nonces.dealings[2][0].public_constant,
    )
    assert signer._group_nonce(session, (1, 2)) == expected
    # empty qualified set is the group identity (vacuous product)
    assert signer._group_nonce(session, ()) == GROUP.identity
