"""Unit-level tests of the refresh protocol's building blocks.

The integration suites exercise RefreshService end-to-end; these tests
pin down the two pieces of math the recovery protocol rests on: the
blinding polynomials (degree t, vanish exactly at the requester's index)
and the majority commitment-sync rule.
"""

import random

import pytest

from repro.crypto.feldman import FeldmanCommitment, FeldmanDealer
from repro.crypto.field import Polynomial
from repro.crypto.group import named_group
from repro.crypto.shamir import Share
from repro.pds.keys import deal_initial_states
from repro.pds.refresh import RefreshService
from repro.pds.transport import DirectTransport

GROUP = named_group("toy64")
FIELD = GROUP.scalar_field
N, T = 5, 2


def make_blinding(target: int, rng: random.Random) -> Polynomial:
    """Reproduce the construction from RefreshService._send_blinds:
    b(z) = sum a_k (z^k - target^k)."""
    coefficients = [0] * (T + 1)
    constant = 0
    for k in range(1, T + 1):
        a_k = FIELD.random_element(rng)
        coefficients[k] = a_k
        constant = (constant - a_k * pow(target, k, FIELD.order)) % FIELD.order
    coefficients[0] = constant
    return Polynomial(FIELD, coefficients)


@pytest.mark.parametrize("target", [1, 2, 3, 5])
def test_blinding_polynomial_vanishes_only_at_target(target):
    rng = random.Random(target)
    poly = make_blinding(target, rng)
    assert poly.evaluate(target) == 0
    assert poly.degree_bound == T
    others = [x for x in range(1, N + 1) if x != target]
    # vanishing elsewhere would leak; overwhelmingly unlikely
    assert any(poly.evaluate(x) != 0 for x in others)


def test_blinding_recovery_identity():
    """x_j = interpolate_at(j, {(k, x_k + b(k))}) when b(j) = 0 — the
    whole recovery protocol in one equation."""
    rng = random.Random(9)
    secret_poly = FIELD.random_polynomial(T, rng, constant=777)
    target = 3
    blind = make_blinding(target, rng)
    points = []
    for helper in (1, 2, 4):
        value = (secret_poly.evaluate(helper) + blind.evaluate(helper)) % FIELD.order
        points.append((helper, value))
    recovered = FIELD.interpolate_at(target, points)
    assert recovered == secret_poly.evaluate(target)


def test_blinding_hides_helper_shares():
    """A single blinded value x_k + b(k) is consistent with every possible
    helper share (b(k) is uniform given b(target)=0 and k != target)."""
    rng = random.Random(11)
    target = 2
    samples = {make_blinding(target, random.Random(i)).evaluate(1) for i in range(60)}
    assert len(samples) > 50  # essentially uniform, not structured


def test_sync_adopts_majority_commitment_anchored_at_rom_key():
    """Feed _adopt_commitment_and_complain a vote set where the node's own
    commitment is corrupt: the t+1 matching honest votes win."""
    public, states = deal_initial_states(GROUP, N, T, random.Random(1))
    state = states[0]
    good = state.key_commitment
    # corrupt this node's copy
    dealer = FeldmanDealer(GROUP, n=N, threshold=T)
    state.key_commitment = dealer.deal(123, random.Random(2)).commitment

    service = RefreshService(state, DirectTransport())
    phase = service._open(unit=1, start_round=0)
    phase.sync_votes = {
        0: tuple(state.key_commitment.elements),  # own corrupt copy
        1: tuple(good.elements),
        2: tuple(good.elements),
        3: tuple(good.elements),
    }

    class _Ctx:
        node_id = 0
        rng = random.Random(0)

        class rom:  # noqa: N801 - minimal stub
            @staticmethod
            def get(key):
                return public.public_key

    # run only the adoption logic
    service._adopt_commitment_and_complain(_Ctx(), phase)
    assert tuple(state.key_commitment.elements) == tuple(good.elements)
    assert phase.need_recovery is False or state.share_is_valid() is False


def test_sync_rejects_majority_with_wrong_anchor():
    """Even t+1 matching votes are rejected if their constant term does
    not equal the ROM public key (an adversary cannot vote in a rogue
    polynomial wholesale)."""
    public, states = deal_initial_states(GROUP, N, T, random.Random(3))
    state = states[0]
    good = state.key_commitment
    rogue = FeldmanDealer(GROUP, n=N, threshold=T).deal(55, random.Random(4)).commitment
    assert rogue.public_constant != public.public_key

    service = RefreshService(state, DirectTransport())
    phase = service._open(unit=1, start_round=0)
    phase.sync_votes = {
        1: tuple(rogue.elements),
        2: tuple(rogue.elements),
        3: tuple(rogue.elements),
        4: tuple(rogue.elements),
    }

    class _Ctx:
        node_id = 0
        rng = random.Random(0)

        class rom:
            @staticmethod
            def get(key):
                return public.public_key

    service._adopt_commitment_and_complain(_Ctx(), phase)
    # the rogue majority was ignored; the node kept its own (good) copy
    assert tuple(state.key_commitment.elements) == tuple(good.elements)
