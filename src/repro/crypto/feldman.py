"""Feldman verifiable secret sharing.

Shamir sharing plus a public commitment vector ``(g^{a_0}, ..., g^{a_t})``
to the dealing polynomial's coefficients.  Any party can check its share
against the commitment, and — crucially for the threshold Schnorr PDS —
any party can compute the *public image* ``g^{f(x)}`` of any other party's
share, which is what makes partial signatures publicly verifiable and the
scheme robust against corrupted signers.

Commitment vectors compose homomorphically: the commitment of a sum of
polynomials is the element-wise product.  Proactive refresh exploits this
to update the public share images after adding a zero-sharing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.field import Polynomial
from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import batch_coefficients, encode_for_hash, tagged_hash
from repro.crypto.shamir import Share, ShamirDealer
from repro.perf.share_image import share_image_value

__all__ = [
    "FeldmanCommitment",
    "FeldmanDealing",
    "FeldmanDealer",
    "verify_shares_batch",
]

_BATCH_TAG = "repro/feldman/batch"


@dataclass(frozen=True)
class FeldmanCommitment:
    """Public commitment ``(g^{a_0}, ..., g^{a_t})`` to a polynomial."""

    elements: tuple[int, ...]

    @property
    def public_constant(self) -> int:
        """``g^{a_0}`` — the public image of the shared secret."""
        return self.elements[0]

    @property
    def degree_bound(self) -> int:
        return len(self.elements) - 1

    def share_image(self, group: SchnorrGroup, x: int) -> int:
        """Compute ``g^{f(x)} = Π elements[k]^{x^k}`` from public data.

        Memoized per commitment through :mod:`repro.perf.share_image`;
        the value is exactly the product of plain exponentiations.
        """
        return share_image_value(group, self.elements, x)

    def verify_share(self, group: SchnorrGroup, share: Share) -> bool:
        """Check ``g^{share.value} == g^{f(share.x)}``."""
        return group.base_power(share.value) == self.share_image(group, share.x)

    def combine(self, group: SchnorrGroup, other: "FeldmanCommitment") -> "FeldmanCommitment":
        """Commitment to the sum of the two committed polynomials.

        The degree bounds must match: every protocol combine (renewal,
        blinding) adds polynomials of the same degree ``t``, and padding a
        shorter adversarial vector with the identity would silently accept
        a lower-degree dealing whose combined sharing no longer matches
        its acked hash.  Raises ``ValueError`` on a mismatch.
        """
        if len(self.elements) != len(other.elements):
            raise ValueError(
                f"degree bound mismatch: {self.degree_bound} vs {other.degree_bound}"
            )
        return FeldmanCommitment(
            elements=tuple(
                group.multiply(a, b) for a, b in zip(self.elements, other.elements)
            )
        )


@dataclass(frozen=True)
class FeldmanDealing:
    """Everything a dealer produces: per-party shares + the commitment."""

    shares: list[Share]
    commitment: FeldmanCommitment


class FeldmanDealer:
    """Deals Feldman-verifiable sharings in a Schnorr group."""

    def __init__(self, group: SchnorrGroup, n: int, threshold: int) -> None:
        self.group = group
        self.shamir = ShamirDealer(group.scalar_field, n, threshold)
        self.n = n
        self.threshold = threshold

    def commit(self, polynomial: Polynomial) -> FeldmanCommitment:
        """Commit to an existing polynomial."""
        return FeldmanCommitment(
            elements=tuple(self.group.base_power(c) for c in polynomial.coefficients)
        )

    def deal(self, secret: int, rng: random.Random) -> FeldmanDealing:
        """Deal a verifiable sharing of ``secret``."""
        polynomial, shares = self.shamir.share(secret, rng)
        return FeldmanDealing(shares=shares, commitment=self.commit(polynomial))

    def deal_zero(self, rng: random.Random) -> FeldmanDealing:
        """Deal a verifiable sharing of zero (for proactive refresh).

        Verifiers must additionally check ``commitment.public_constant == 1``
        to be sure the dealt secret really is zero; see
        :meth:`verify_zero_dealing`.
        """
        return self.deal(0, rng)

    def verify_zero_dealing(self, dealing_commitment: FeldmanCommitment) -> bool:
        """Check that a commitment opens to a degree-``t`` sharing of zero.

        Rejects both a non-identity constant term (the dealt secret would
        not be zero, so adding it would *change* the key) and a mismatched
        degree bound (a lower- or higher-degree dealing would change the
        reconstruction threshold of the refreshed sharing).
        """
        return (
            dealing_commitment.degree_bound == self.threshold
            and dealing_commitment.public_constant == self.group.identity
        )


def verify_shares_batch(
    group: SchnorrGroup,
    items: Sequence[tuple[FeldmanCommitment, Share]],
) -> list[bool]:
    """Per-item verdicts of ``commitment.verify_share(group, share)`` for a
    whole batch, checked with one random-linear-combination equation.

    Mirrors :meth:`repro.crypto.schnorr.SchnorrScheme.batch_verify`:
    full-length coefficients ``c_i ∈ [1, q)`` come from one
    :func:`~repro.crypto.hashing.batch_coefficients` stream keyed by a
    Fiat–Shamir hash of the whole batch (every commitment vector,
    evaluation point and claimed value), so the check is deterministic
    and an adversary cannot pick shares after the coefficients are
    fixed.  The verified equation is

        g^(Σ c_i·v_i)  ==  Π_i Π_k elements_{i,k}^{c_i·x_i^k}

    with exponents aggregated per distinct base (all zero-dealings share
    the identity constant term, and co-dealt commitments frequently repeat
    elements) and the right-hand side one
    :meth:`~repro.crypto.group.SchnorrGroup.multi_power` call.  If the
    aggregate holds, every share is valid up to the
    standard ``1/q`` soundness error; if it fails, the function falls back
    to per-item verification *in batch order*, so blame attribution — which
    dealer gets complained against, which partial emitter gets rejected —
    is identical to the unbatched path.  A batch of one is exactly the
    per-item check.
    """
    if len(items) < 2:
        return [commitment.verify_share(group, share) for commitment, share in items]
    q = group.q
    transcript = tagged_hash(
        _BATCH_TAG,
        *(
            encode_for_hash((commitment.elements, share.x, share.value))
            for commitment, share in items
        ),
    )
    value_total = 0
    base_exponents: dict[int, int] = {}
    coefficients = batch_coefficients(_BATCH_TAG, transcript, len(items), q)
    for c, (commitment, share) in zip(coefficients, items):
        value_total = (value_total + c * share.value) % q
        power_of_x = 1
        for element in commitment.elements:
            base_exponents[element] = (
                base_exponents.get(element, 0) + c * power_of_x
            ) % q
            power_of_x = (power_of_x * share.x) % q
    rhs = group.multi_power(list(base_exponents.items()))
    if group.base_power(value_total) == rhs:
        return [True] * len(items)
    return [commitment.verify_share(group, share) for commitment, share in items]
