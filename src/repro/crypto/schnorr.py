"""Centralized Schnorr signatures over a Schnorr group.

This is the default instantiation of the paper's abstract scheme
``CS = (CGen, CSign, CVer)``: existentially unforgeable under chosen
message attack in the random-oracle model under discrete log.  It is also
the *centralized shadow* of the threshold scheme in
:mod:`repro.pds.threshold_schnorr` — a threshold signature combined from
partial signatures verifies under this exact verifier.

Determinism contract: signing is *derandomized* (RFC-6979 style — the
nonce is a hash of the signing key and the message), so (a) the same
``(signing_key, message)`` always yields the same signature, (b) signing
never reads or advances any RNG — neither the module-level ``random``
state nor the simulator's seeded streams — which the replay determinism
of the parallel benchmark harness relies on, and (c) nonce reuse across
distinct messages is structurally impossible.

Performance layer hooks (all transcript-neutral, see :mod:`repro.perf`):
Fiat–Shamir challenges are memoized under their exact inputs, and
:meth:`SchnorrScheme.verify` raises ``g`` to ``s`` and ``y`` to ``e``
through fixed-base windows kept for as long as the key is in force.
:meth:`SchnorrScheme.batch_verify` checks each signature on its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.crypto.group import SchnorrGroup, named_group
from repro.crypto.hashing import hash_to_int, register_record
from repro.crypto.signature import KeyPair, SignatureScheme
from repro.perf.registry import register_cache_clearer

__all__ = [
    "SchnorrSignature",
    "SchnorrVerifyKey",
    "SchnorrSigningKey",
    "SchnorrScheme",
    "scheme_for_group",
]

_CHALLENGE_TAG = "repro/schnorr/challenge"


@dataclass(frozen=True)
class SchnorrVerifyKey:
    """Public key ``y = g^x``."""

    y: int


@dataclass(frozen=True)
class SchnorrSigningKey:
    """Secret exponent ``x`` plus the matching public key (kept for
    convenience so signers do not need to recompute ``g^x``)."""

    x: int
    y: int


@dataclass(frozen=True)
class SchnorrSignature:
    """A signature ``(R, s)`` with ``g^s = R * y^e``, ``e = H(R, y, m)``."""

    commitment: int  # R = g^k
    response: int  # s = k + e*x mod q


# a certified message carries a signature and a verify key, and DISPERSE
# recognises its copies by encode_for_hash (docs/PROTOCOLS.md §12)
register_record(SchnorrVerifyKey, "y")
register_record(SchnorrSignature, "commitment", "response")


@lru_cache(maxsize=16384)
def _cached_challenge(q: int, commitment: int, y: int, message: bytes) -> int:
    return hash_to_int(_CHALLENGE_TAG, q, commitment, y, message)


register_cache_clearer(_cached_challenge.cache_clear)


class SchnorrScheme(SignatureScheme):
    """Schnorr signatures; see module docstring.

    Args:
        group: the Schnorr group to operate in (defaults to the fast
            ``toy64`` test group; pass ``named_group("toy512")`` or a
            generated group for realistic sizes).
    """

    name = "schnorr"

    def __init__(self, group: SchnorrGroup | None = None) -> None:
        self.group = group or named_group("toy64")

    def key_repr(self, verify_key: SchnorrVerifyKey) -> tuple:
        if not isinstance(verify_key, SchnorrVerifyKey):
            raise TypeError("not a Schnorr verify key")
        return ("schnorr", self.group.p, verify_key.y)

    def generate(self, rng: random.Random) -> KeyPair:
        x = self.group.random_scalar(rng)
        y = self.group.base_power(x)
        return KeyPair(SchnorrVerifyKey(y=y), SchnorrSigningKey(x=x, y=y))

    def challenge(self, commitment: int, y: int, message: bytes) -> int:
        """Fiat--Shamir challenge ``e = H(R, y, m) mod q``.

        Exposed publicly because the threshold scheme computes the same
        challenge when assembling partial signatures.  Memoized under the
        exact inputs (the threshold protocol recomputes the same challenge
        once per partial signature).
        """
        return _cached_challenge(self.group.q, commitment, y, message)

    def sign(self, signing_key: SchnorrSigningKey, message: bytes) -> SchnorrSignature:
        # Derandomized nonce (RFC-6979 style): hash of key and message.
        # Keeps the simulator deterministic and avoids nonce-reuse pitfalls.
        k = hash_to_int("repro/schnorr/nonce", self.group.q, signing_key.x, message)
        if k == 0:
            k = 1
        commitment = self.group.base_power(k)
        e = self.challenge(commitment, signing_key.y, message)
        s = (k + e * signing_key.x) % self.group.q
        return SchnorrSignature(commitment=commitment, response=s)

    def _well_formed(self, verify_key: object, signature: object) -> bool:
        """The structural part of verification: types, ranges and the
        key's subgroup membership.

        The fields are checked too: a signature or key built off the
        wire can carry a float, a string or a list, which must be
        rejected here rather than raise inside the arithmetic.  ``R``
        needs only ``0 < R < p``: with ``y`` in the order-``q``
        subgroup, ``g^s ≡ R·y^e`` forces ``R ≡ g^s·y^{−e}``, a member
        (docs/PROTOCOLS.md §12)."""
        if not isinstance(signature, SchnorrSignature):
            return False
        if not isinstance(verify_key, SchnorrVerifyKey):
            return False
        if not (
            type(signature.commitment) is int
            and type(signature.response) is int
            and type(verify_key.y) is int
        ):
            return False
        if not (0 < signature.commitment < self.group.p):
            return False
        if not self.group.is_member(verify_key.y):
            return False
        if not (0 <= signature.response < self.group.q):
            return False
        return True

    def verify(self, verify_key: SchnorrVerifyKey, message: bytes, signature: object) -> bool:
        if not self._well_formed(verify_key, signature):
            return False
        e = self.challenge(signature.commitment, verify_key.y, message)
        lhs = self.group.base_power(signature.response)
        rhs = self.group.multiply(
            signature.commitment, self.group.fixed_power(verify_key.y, e)
        )
        return lhs == rhs

    def batch_verify(
        self, items: Sequence[tuple[SchnorrVerifyKey, bytes, object]]
    ) -> bool:
        """True iff every ``(verify_key, message, signature)`` triple
        verifies, each checked on its own by :meth:`verify`.

        VER-CERT hands one round's uncached checks here
        (:func:`repro.core.certify.ver_cert_many`); a False verdict says
        *at least one* item is bad, and the caller verifies each item
        alone to attribute the rejection.
        """
        return all(self.verify(*item) for item in items)


@lru_cache(maxsize=64)
def scheme_for_group(group: SchnorrGroup) -> SchnorrScheme:
    """One shared :class:`SchnorrScheme` per group.

    The scheme object is stateless, but hot paths (``verify_pds_signature``
    is called for every certificate check) used to construct a fresh one
    per call; this memo makes that free.
    """
    return SchnorrScheme(group)
