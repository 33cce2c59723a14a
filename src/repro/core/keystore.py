"""Per-time-unit local keys and certificates (§4.1 items (a)–(c)).

Each node holds, in ordinary (corruptible) RAM:

- its *local keys* for the current time unit: a signing/verification key
  pair of the centralized scheme ``CS``, denoted ``s_i^u, v_i^u``;
- the *certificate* ``cert_i^u``: a PDS signature, verifiable with the
  global verification key in ROM, on the assertion
  "the public key of ``N_i`` in time unit ``u`` is ``v_i^u``".

During Part (I) of a refreshment phase the *next* unit's keys exist in a
pending slot while the previous unit's keys remain in force; the switch
happens when Part (I) completes.  Any component may be ``None`` — the
paper's ``φ`` — meaning the node currently cannot authenticate itself
(and must alert).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.crypto.hashing import encode_for_hash
from repro.crypto.signature import KeyPair, SignatureScheme
from repro.perf.cache import invalidate_verify_key

__all__ = ["LocalKeys", "KeyStore", "certificate_assertion"]


def certificate_assertion(node_id: int, unit: int, key_repr: tuple) -> tuple:
    """The assertion the PDS signs: "the public key of N_i in time unit u
    is v" — as a canonical tuple."""
    return ("cert", node_id, unit, key_repr)


@dataclass
class LocalKeys:
    """One unit's local key material (any part may be ``φ`` = None)."""

    unit: int
    keypair: KeyPair | None = None
    certificate: Any | None = None

    @property
    def usable(self) -> bool:
        """True iff the node can CERTIFY messages with these keys."""
        return self.keypair is not None and self.certificate is not None

    @cached_property
    def key_encoding(self) -> bytes | None:
        """The encodings of the verify key and the certificate, which end
        the wire encoding of every message these keys certify (None when
        either cannot be encoded).  Read only once the keys are usable:
        neither changes after that."""
        try:
            return encode_for_hash(self.keypair.verify_key) + encode_for_hash(self.certificate)
        except TypeError:
            return None


class KeyStore:
    """Holds the current (in force) and pending local keys."""

    def __init__(self, scheme: SignatureScheme) -> None:
        self.scheme = scheme
        self.current = LocalKeys(unit=0)
        self.pending: LocalKeys | None = None
        #: per-unit history of whether keys were obtained ("ok"/"failed")
        self.history: list[tuple[int, str]] = []
        #: per-unit canonical repr of the certified verification key —
        #: public data, kept for the BAD2/BAD3 analysis (Defs. 23-24)
        self.key_reprs: dict[int, tuple] = {}

    # -- Part (I) lifecycle --------------------------------------------------

    def generate_pending(self, unit: int, rng: random.Random) -> Any:
        """URfr Part (I) step 1: fresh local keys for ``unit``; returns the
        new verification key."""
        self.pending = LocalKeys(unit=unit, keypair=self.scheme.generate(rng))
        return self.pending.keypair.verify_key

    def pending_key_repr(self) -> tuple | None:
        if self.pending is None or self.pending.keypair is None:
            return None
        return self.scheme.key_repr(self.pending.keypair.verify_key)

    def install_pending(self, certificate: Any | None) -> bool:
        """URfr Part (I) step 5: adopt the pending keys.

        With a certificate, the new keys go into force; without one the
        paper sets ``s = v = cert = φ`` (the caller must alert).  The
        previous unit's signing key is dropped either way (erasure, §6).
        Returns True on success.

        The superseded verification key's bucket in the global
        verification cache is dropped alongside (hygiene, not safety: a
        stale entry could never be consulted for the new unit anyway
        because VER-CERT pins the expected unit before any signature
        check, and fresh keys never repeat).
        """
        if self.current.keypair is not None:
            invalidate_verify_key(self.scheme, self.current.keypair.verify_key)
        if self.pending is None:
            self.current = LocalKeys(unit=self.current.unit + 1)
            self.history.append((self.current.unit, "failed"))
            return False
        unit = self.pending.unit
        if certificate is None:
            self.current = LocalKeys(unit=unit)  # all φ
            self.pending = None
            self.history.append((unit, "failed"))
            return False
        self.pending.certificate = certificate
        self.current = self.pending
        self.pending = None
        self.history.append((unit, "ok"))
        self.key_reprs[unit] = self.scheme.key_repr(self.current.keypair.verify_key)
        return True

    # -- signing-side accessors ---------------------------------------------------

    @property
    def unit(self) -> int:
        """The unit whose keys are currently in force (the ``u`` stamped
        into CERTIFY and checked by VER-CERT)."""
        return self.current.unit

    def can_sign(self) -> bool:
        return self.current.usable
