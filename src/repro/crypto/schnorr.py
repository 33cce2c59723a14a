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
Fiat–Shamir challenges are memoized under their exact inputs, a single
:meth:`SchnorrScheme.verify` raises ``y`` to ``e`` through a fixed-base
window kept for the long-lived key, and :meth:`SchnorrScheme.batch_verify`
checks many signatures with one random-linear-combination equation whose
right-hand side is a single multi-exponentiation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from repro.crypto.group import SchnorrGroup, named_group
from repro.crypto.hashing import (
    batch_coefficients,
    encode_for_hash,
    hash_to_int,
    register_record,
    tagged_hash,
)
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
_BATCH_TAG = "repro/schnorr/batch"


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
        """The structural part of verification (types, subgroup
        membership, response range) — shared by :meth:`verify` and
        :meth:`batch_verify` so both reject exactly the same garbage.

        The fields are checked too: a signature or key built off the
        wire can carry a float, a string or a list, which must be
        rejected here rather than raise inside the arithmetic.  Subgroup
        membership of ``R`` and ``y`` keeps the batch equation in step
        with :meth:`verify`: a non-member ``-R`` contributes
        ``(-1)^{c_i}`` to the batch, which vanishes whenever ``c_i`` is
        even (docs/PROTOCOLS.md §12)."""
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
        if not self.group.is_member(signature.commitment):
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
        """Check many ``(verify_key, message, signature)`` triples with
        one random-linear-combination equation.

        Draws full-length coefficients ``c_i ∈ [1, q)`` by Fiat–Shamir
        from a hash of the *whole batch* (keys, commitments, responses
        and messages), all from one
        :func:`~repro.crypto.hashing.batch_coefficients` stream, so the
        check is deterministic — replays reproduce it bit-for-bit —
        while an adversary cannot choose signatures after the
        coefficients are fixed.  The verified equation is

            g^(Σ c_i·s_i)  ==  Π R_i^{c_i} · Π y^{Σ_{i: y_i=y} c_i·e_i}

        whose right-hand side is one :meth:`SchnorrGroup.multi_power`
        call over every ``R_i`` and every distinct key (exponents of a
        shared base are aggregated, so a flood of certificates under the
        one PDS key ``v_cert`` adds a single term).  Returns True iff
        every signature in the batch verifies, up to the standard
        ``1/q`` soundness error of batch verification; a False verdict
        says *at least one* item is bad — callers fall back to
        individual verification to attribute blame (see
        :func:`repro.core.certify.ver_cert_many`).
        """
        if not items:
            return True
        group = self.group
        q = group.q
        for verify_key, _message, signature in items:
            if not self._well_formed(verify_key, signature):
                return False
        transcript = tagged_hash(
            _BATCH_TAG,
            *(
                encode_for_hash(
                    (verify_key.y, signature.commitment, signature.response)
                )
                + message
                for verify_key, message, signature in items
            ),
        )
        s_total = 0
        exponents: dict[int, int] = {}  # base (R_i or key y) -> exponent
        coefficients = batch_coefficients(_BATCH_TAG, transcript, len(items), q)
        for c, (verify_key, message, signature) in zip(coefficients, items):
            e = self.challenge(signature.commitment, verify_key.y, message)
            s_total = (s_total + c * signature.response) % q
            exponents[signature.commitment] = exponents.get(signature.commitment, 0) + c
            exponents[verify_key.y] = exponents.get(verify_key.y, 0) + c * e
        return group.base_power(s_total) == group.multi_power(exponents.items())


@lru_cache(maxsize=64)
def scheme_for_group(group: SchnorrGroup) -> SchnorrScheme:
    """One shared :class:`SchnorrScheme` per group.

    The scheme object is stateless, but hot paths (``verify_pds_signature``
    is called for every certificate check) used to construct a fresh one
    per call; this memo makes that free.
    """
    return SchnorrScheme(group)
