"""Batched Feldman share verification (`verify_shares_batch`).

The batch equation must answer exactly what the per-item loop answers:
all-True for honest batches, and — via the per-item fallback — the exact
same verdict vector when anything in the batch is forged, so blame
attribution is identical to checking every share alone.
"""

import random

from repro.crypto.feldman import FeldmanDealer, verify_shares_batch
from repro.crypto.group import named_group
from repro.crypto.shamir import Share

GROUP = named_group("toy64")
N, T = 7, 2
RECEIVER_X = 3  # all batches are verified from one receiver's viewpoint


def deal_batch(count, seed=0, zero=False):
    """``count`` independent dealings, each paired with receiver 3's share."""
    rng = random.Random(seed)
    dealer = FeldmanDealer(GROUP, n=N, threshold=T)
    items = []
    for _ in range(count):
        dealing = dealer.deal_zero(rng) if zero else dealer.deal(rng.randrange(GROUP.q), rng)
        items.append((dealing.commitment, dealing.shares[RECEIVER_X - 1]))
    return items


def forge_share(item, delta=1):
    commitment, share = item
    return commitment, Share(x=share.x, value=(share.value + delta) % GROUP.q)


def forge_commitment(item):
    commitment, share = item
    tampered = (GROUP.multiply(commitment.elements[1], GROUP.g),)
    elements = commitment.elements[:1] + tampered + commitment.elements[2:]
    return type(commitment)(elements=elements), share


def test_empty_batch_is_noop(perf):
    assert verify_shares_batch(GROUP, []) == []


def test_all_valid_batch_passes(perf):
    items = deal_batch(6)
    assert verify_shares_batch(GROUP, items) == [True] * 6


def test_forged_share_detected_and_attributed(perf):
    items = deal_batch(6, seed=1)
    items[2] = forge_share(items[2])
    verdicts = verify_shares_batch(GROUP, items)
    assert verdicts == [True, True, False, True, True, True]


def test_forged_commitment_detected_and_attributed(perf):
    items = deal_batch(5, seed=2)
    items[4] = forge_commitment(items[4])
    verdicts = verify_shares_batch(GROUP, items)
    assert verdicts == [True, True, True, True, False]


def test_single_bad_dealer_among_good_is_named_exactly(perf):
    """n-1 honest dealers + 1 forger: the fallback must blame exactly the
    forger, at its batch position, with every honest verdict intact."""
    for bad_position in range(N - 1):
        items = deal_batch(N - 1, seed=3 + bad_position, zero=True)
        items[bad_position] = forge_share(items[bad_position])
        verdicts = verify_shares_batch(GROUP, items)
        expected = [index != bad_position for index in range(N - 1)]
        assert verdicts == expected, bad_position


def test_batch_matches_individual_verification(perf):
    items = deal_batch(8, seed=4)
    items[0] = forge_share(items[0], delta=5)
    items[7] = forge_share(items[7], delta=7)
    expected = [commitment.verify_share(GROUP, share) for commitment, share in items]
    assert verify_shares_batch(GROUP, items) == expected

    # mixed batch: honest, forged share, forged commitment
    items = deal_batch(6, seed=9)
    items[1] = forge_share(items[1])
    items[4] = forge_commitment(items[4])
    expected = [commitment.verify_share(GROUP, share) for commitment, share in items]
    assert verify_shares_batch(GROUP, items) == expected == [
        True, False, True, True, False, True
    ]
