"""Algorithms CERTIFY and VER-CERT (paper Fig. 3).

CERTIFY binds a message to its full context — content ``m``, source ``i``,
destination ``j``, time unit ``u`` and communication round ``w`` — under
the sender's per-unit local key, and attaches the local verification key
plus its PDS certificate.  VER-CERT checks, in order:

1. **format/time**: right source, destination, unit and round (replays
   and reflected messages die here);
2. **certificate**: the attached verification key is certified for
   ``(i, u)`` under the global key ``v_cert`` held in ROM;
3. **signature**: the message signature verifies under the attached key.

A message passing all three is *properly certified* (Definition 17(a)).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.crypto.hashing import encode_for_hash
from repro.crypto.schnorr import SchnorrScheme, SchnorrVerifyKey, scheme_for_group
from repro.crypto.signature import SignatureError, SignatureScheme
from repro.core.keystore import LocalKeys, certificate_assertion
from repro.pds.keys import PdsPublic
from repro.pds.threshold_schnorr import pds_message_bytes, verify_pds_signature_bytes
from repro.perf.cache import (
    CanonicalKeyCache,
    cached_verify,
    canonical_encoding,
    lookup_verify,
    store_verify,
)
from repro.perf.registry import register_cache_clearer
from repro.perf.volume import BROADCAST

__all__ = [
    "CertifiedMessage",
    "certify",
    "prime_parsed",
    "ver_cert",
    "ver_cert_many",
    "verify_certified_body",
]


class CertifiedMessage(tuple):
    """The tuple ``⟨m, i, j, u, w, σ, v, cert⟩`` of Fig. 3 (a thin subclass
    for readability; stays a plain tuple on the wire)."""

    __slots__ = ()

    @property
    def message(self) -> Any:
        return self[0]

    @property
    def source(self) -> int:
        return self[1]

    @property
    def destination(self) -> int:
        return self[2]

    @property
    def unit(self) -> int:
        return self[3]

    @property
    def round(self) -> int:
        return self[4]

    @property
    def signature(self) -> Any:
        return self[5]

    @property
    def verify_key(self) -> Any:
        return self[6]

    @property
    def certificate(self) -> Any:
        return self[7]


# encode_for_hash of a 6-tuple = list header + the six element encodings
# concatenated; the first element is always the literal "auth-msg" tag.
# Assembling the pieces here lets the (shared, deeply nested) message body
# reuse its identity-memoized encoding instead of being re-walked once per
# destination — the bytes are identical to encoding the whole tuple.
_SIGNED_HEADER = b"L" + (6).to_bytes(8, "big") + encode_for_hash("auth-msg")


def _signed_bytes(message: Any, source: int, destination: int, unit: int, round_w: int) -> bytes:
    return b"".join(
        (
            _SIGNED_HEADER,
            canonical_encoding(message),
            encode_for_hash(source),
            encode_for_hash(destination),
            encode_for_hash(unit),
            encode_for_hash(round_w),
        )
    )


# DISPERSE floods hand the *same* certified tuple object to every relay
# and receiver, and PARTIAL-AGREEMENT re-disperses raw tuples wholesale —
# so the parse, the signed-body encoding and the certificate-assertion
# encoding of one message are recomputed many times per round.  All three
# are memoized by tuple identity (exact: same object, same result).  The
# parse memo is what makes the downstream memos effective: it hands every
# caller of the same raw tuple the same CertifiedMessage object.
_PARSE_MEMO = CanonicalKeyCache(maxsize=8192)
register_cache_clearer(_PARSE_MEMO.clear)

_SIGNED_BYTES_MEMO = CanonicalKeyCache(maxsize=8192)
register_cache_clearer(_SIGNED_BYTES_MEMO.clear)

_CERT_BYTES_MEMO = CanonicalKeyCache(maxsize=8192)
register_cache_clearer(_CERT_BYTES_MEMO.clear)


def _compute_signed_bytes(msg: "CertifiedMessage") -> bytes:
    return _signed_bytes(msg.message, msg.source, msg.destination, msg.unit, msg.round)


def _signed_bytes_for(msg: "CertifiedMessage") -> bytes:
    """Signed-body bytes of a parsed certified message (memoized).

    Raises ``TypeError`` for unencodable message payloads, exactly like
    :func:`_signed_bytes`; failures are not cached.
    """
    return _SIGNED_BYTES_MEMO.get(msg, _compute_signed_bytes)


def certify(
    scheme: SignatureScheme,
    keys: LocalKeys,
    message: Any,
    source: int,
    destination: int,
    round_w: int,
) -> CertifiedMessage | None:
    """Fig. 3 CERTIFY.  Returns None when the keys are ``φ`` (a node whose
    refresh failed cannot authenticate anything — it should already have
    alerted)."""
    if not keys.usable:
        return None
    try:
        body = _signed_bytes(message, source, destination, keys.unit, round_w)
        signature = scheme.sign(keys.keypair.signing_key, body)
    except SignatureError:
        return None  # e.g. one-time keys exhausted
    msg = CertifiedMessage(
        (
            message,
            source,
            destination,
            keys.unit,
            round_w,
            signature,
            keys.keypair.verify_key,
            keys.certificate,
        )
    )
    # the sender already paid for the signed-body encoding; seed the memo
    # so no verifier of this object ever recomputes it
    _SIGNED_BYTES_MEMO.put(msg, body)
    return msg


def prime_parsed(wire: tuple, msg: CertifiedMessage) -> None:
    """Seed the parse memo: ``wire`` is the plain tuple about to be
    flooded, ``msg`` its already-parsed certified form.  Sound because a
    ``CertifiedMessage`` *is* its tuple — parsing ``wire`` from scratch
    would reproduce ``msg`` element for element."""
    _PARSE_MEMO.put(wire, msg)


#: (source, unit, key_repr) -> assertion bytes.  Only ~n*units distinct
#: assertions ever exist per execution, but every signed message carries
#: one — a content-keyed table collapses the re-encoding.  Bounded by
#: wholesale clearing (entries are tiny; the bound is a leak guard).
_ASSERTION_BYTES: dict[Any, bytes] = {}
register_cache_clearer(_ASSERTION_BYTES.clear)
_MAX_ASSERTION_BYTES = 4096


def _compute_cert_bytes(scheme: SignatureScheme, msg: CertifiedMessage) -> bytes:
    key_repr = scheme.key_repr(msg.verify_key)
    try:
        table_key = (msg.source, msg.unit, key_repr)
        cached = _ASSERTION_BYTES.get(table_key)
    except TypeError:  # unhashable key_repr: compute without caching
        assertion = certificate_assertion(msg.source, msg.unit, key_repr)
        return pds_message_bytes(assertion, msg.unit)
    if cached is None:
        assertion = certificate_assertion(msg.source, msg.unit, key_repr)
        cached = pds_message_bytes(assertion, msg.unit)
        if len(_ASSERTION_BYTES) >= _MAX_ASSERTION_BYTES:
            _ASSERTION_BYTES.clear()
        _ASSERTION_BYTES[table_key] = cached
    return cached


def _cert_bytes_for(scheme: SignatureScheme, msg: CertifiedMessage) -> bytes:
    """Canonical bytes of the certificate assertion the PDS must have
    signed for ``msg`` — a pure function of the message's own fields
    (source, unit, attached key), memoized by message identity.

    Raises ``TypeError`` for foreign key objects, like
    ``scheme.key_repr``; failures are not cached.
    """
    entry = _CERT_BYTES_MEMO.get(
        msg, lambda m: (scheme, _compute_cert_bytes(scheme, m))
    )
    if entry[0] is scheme:
        return entry[1]
    return _compute_cert_bytes(scheme, msg)


def _check_certificate(
    scheme: SignatureScheme, public: PdsPublic, msg: CertifiedMessage
) -> bool:
    """Step 2 of VER-CERT: the attached key is certified for (i, u)."""
    try:
        cert_bytes = _cert_bytes_for(scheme, msg)
    except TypeError:
        return False
    return verify_pds_signature_bytes(public, cert_bytes, msg.certificate)


def ver_cert(
    scheme: SignatureScheme,
    public: PdsPublic,
    receiver: int,
    alleged_source: int,
    expected_unit: int,
    expected_round: int,
    raw: Any,
) -> CertifiedMessage | None:
    """Fig. 3 VER-CERT.  Returns the accepted message, or None on reject."""
    msg = _parse(raw)
    if msg is None:
        return None
    # step 1: format and time.  A message signed with the BROADCAST
    # destination is addressed to everyone: the signature still binds
    # source, unit and round (which is what step 1's replay/reflection
    # protection rests on), so accepting the sentinel for any receiver is
    # sound — the per-receiver destination only ever narrowed who may
    # accept, and the sender explicitly chose not to narrow.
    if msg.source != alleged_source:
        return None
    if msg.destination != receiver and msg.destination != BROADCAST:
        return None
    if msg.unit != expected_unit or msg.round != expected_round:
        return None
    # step 2: certificate
    if not _check_certificate(scheme, public, msg):
        return None
    # step 3: message signature
    try:
        body = _signed_bytes_for(msg)
    except TypeError:
        return None
    if not cached_verify(scheme, msg.verify_key, body, msg.signature):
        return None
    return msg


def verify_certified_body(
    scheme: SignatureScheme,
    public: PdsPublic,
    expected_unit: int,
    expected_round: int,
    raw: Any,
) -> CertifiedMessage | None:
    """Like :func:`ver_cert` but without pinning source/destination.

    Used by PARTIAL-AGREEMENT step 4 (Fig. 5), where nodes cross-check
    *forwarded* certified messages that were originally addressed to other
    nodes: authenticity of (author, content, time) is what matters, the
    destination is whoever the author originally sent its input to.
    """
    msg = _parse(raw)
    if msg is None:
        return None
    if msg.unit != expected_unit or msg.round != expected_round:
        return None
    if not _check_certificate(scheme, public, msg):
        return None
    try:
        body = _signed_bytes_for(msg)
    except TypeError:
        return None
    if not cached_verify(scheme, msg.verify_key, body, msg.signature):
        return None
    return msg


def ver_cert_many(
    scheme: SignatureScheme,
    public: PdsPublic,
    receiver: int,
    expected_unit: int,
    expected_round: int,
    items: Sequence[tuple[int, Any]],
) -> list[CertifiedMessage | None]:
    """VER-CERT over one round's worth of receipts, batched.

    ``items`` are ``(alleged_source, raw)`` pairs as produced by
    DISPERSE; the result list is index-aligned (``None`` = rejected), so
    acceptance order — and with it the transcript — is exactly that of
    running :func:`ver_cert` sequentially.

    The speedup comes from resolving all signature checks of the round
    together: format/time checks run first (free), then every remaining
    certificate and message-signature check is answered from the
    verification cache or folded into one random-linear-combination
    batch per group (certificates all verify under the single PDS key
    ``v_cert``, so a flood of them costs one ``v_cert`` exponentiation).
    A failing batch falls back to individual verification, so rejected
    messages are attributed identically to the sequential path.
    """
    results: list[CertifiedMessage | None] = [None] * len(items)
    candidates: list[tuple[int, CertifiedMessage, int, int]] = []
    checks: list[tuple[SignatureScheme, Any, bytes, Any]] = []
    pds_scheme = scheme_for_group(public.group)
    pds_key = SchnorrVerifyKey(y=public.public_key)
    for index, (alleged_source, raw) in enumerate(items):
        msg = _parse(raw)
        if msg is None:
            continue
        # step 1: format and time (BROADCAST accepted for any receiver,
        # exactly as in ver_cert)
        if msg.source != alleged_source:
            continue
        if msg.destination != receiver and msg.destination != BROADCAST:
            continue
        if msg.unit != expected_unit or msg.round != expected_round:
            continue
        try:
            cert_bytes = _cert_bytes_for(scheme, msg)
            body = _signed_bytes_for(msg)
        except TypeError:
            continue
        cert_check = len(checks)
        checks.append((pds_scheme, pds_key, cert_bytes, msg.certificate))
        body_check = len(checks)
        checks.append((scheme, msg.verify_key, body, msg.signature))
        candidates.append((index, msg, cert_check, body_check))
    outcomes = _resolve_checks(checks)
    for index, msg, cert_check, body_check in candidates:
        # steps 2 + 3: certificate, then message signature
        if outcomes[cert_check] and outcomes[body_check]:
            results[index] = msg
    return results


def _resolve_checks(
    checks: Sequence[tuple[SignatureScheme, Any, bytes, Any]]
) -> list[bool]:
    """Answer a round's signature checks: cache first, then one batch per
    Schnorr group, individual (cached) verification for everything else
    and for the members of a failing batch."""
    outcomes: list[bool | None] = [None] * len(checks)
    cache_keys: list[Any] = [None] * len(checks)
    batchable: dict[Any, list[int]] = {}
    singles: list[int] = []
    for index, (check_scheme, verify_key, message, signature) in enumerate(checks):
        bucket_key, cached = lookup_verify(check_scheme, verify_key, message, signature)
        if cached is not None:
            outcomes[index] = cached
            continue
        cache_keys[index] = bucket_key
        if isinstance(check_scheme, SchnorrScheme):
            batchable.setdefault(check_scheme.group, []).append(index)
        else:
            singles.append(index)
    for group, indices in batchable.items():
        if len(indices) < 2:
            singles.extend(indices)
            continue
        batch_scheme = checks[indices[0]][0]
        batch = [(checks[i][1], checks[i][2], checks[i][3]) for i in indices]
        if batch_scheme.batch_verify(batch):
            for i in indices:
                outcomes[i] = True
                store_verify(cache_keys[i], checks[i][2], checks[i][3], True)
        else:
            # at least one member is bad: attribute blame individually
            singles.extend(indices)
    for i in singles:
        check_scheme, verify_key, message, signature = checks[i]
        outcomes[i] = cached_verify(check_scheme, verify_key, message, signature)
    return [bool(outcome) for outcome in outcomes]


def _parse(raw: Any) -> CertifiedMessage | None:
    if isinstance(raw, CertifiedMessage):
        return raw
    if isinstance(raw, tuple) and len(raw) == 8:
        if isinstance(raw[1], int) and isinstance(raw[2], int) \
                and isinstance(raw[3], int) and isinstance(raw[4], int):
            # one flooded tuple object → one CertifiedMessage object, so
            # the per-message memos above hit on every re-receipt
            return _PARSE_MEMO.get(raw, CertifiedMessage)
    return None
