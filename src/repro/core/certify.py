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
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature, SchnorrVerifyKey, scheme_for_group
from repro.crypto.signature import SignatureError, SignatureScheme
from repro.core.keystore import LocalKeys, certificate_assertion
from repro.pds.keys import PdsPublic
from repro.pds.threshold_schnorr import pds_message_bytes, verify_pds_signature_bytes
from repro.perf.cache import (
    CanonicalKeyCache,
    cached_verify,
    canonical_encoding,
    lookup_verify,
    seed_canonical_key,
    store_verify,
)
from repro.perf.registry import register_cache_clearer
from repro.wire import BROADCAST, CERTIFIED, fits

__all__ = [
    "CertifiedMessage",
    "certify",
    "ver_cert",
    "ver_cert_many",
    "verify_certified_body",
]


class CertifiedMessage(tuple):
    """The tuple ``⟨m, i, j, u, w, σ, v, cert⟩`` of Fig. 3.

    AUTH-SEND floods the object :func:`certify` returns, and every layer
    handles that same object.  Being a tuple, it encodes, dedups and
    digests exactly like a plain one."""

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
# the 8-tuple ⟨m, i, j, u, w, σ, v, cert⟩ encodes as its own list header,
# the five element encodings the signed body ends with, then σ, v, cert
_WIRE_HEADER = b"L" + (8).to_bytes(8, "big")


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


# DISPERSE floods hand the *same* certified message object to every
# relay and receiver, and PARTIAL-AGREEMENT re-disperses accepted ones
# wholesale, so the signed-body encoding of one message is needed many
# times per round.  It is memoized by message identity (exact: same
# object, same result); CERTIFY seeds it with the bytes it just signed.
_SIGNED_BYTES_MEMO = CanonicalKeyCache(maxsize=8192)
register_cache_clearer(_SIGNED_BYTES_MEMO.clear)


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
    # and its wire encoding, the key DISPERSE and PARTIAL-AGREEMENT
    # recognise its copies by (other schemes' messages are keyed on use)
    if type(signature) is SchnorrSignature:
        key_encoding = keys.key_encoding
        if key_encoding is not None:
            seed_canonical_key(msg, b"".join((
                _WIRE_HEADER,
                body[len(_SIGNED_HEADER):],
                encode_for_hash(signature),
                key_encoding,
            )))
    return msg


#: (source, unit, key_repr) -> assertion bytes.  Only ~n*units distinct
#: assertions ever exist per execution, but every signed message carries
#: one — a content-keyed table collapses the re-encoding.  Bounded by
#: wholesale clearing (entries are tiny; the bound is a leak guard).
_ASSERTION_BYTES: dict[Any, bytes] = {}
register_cache_clearer(_ASSERTION_BYTES.clear)
_MAX_ASSERTION_BYTES = 4096


def _cert_bytes_for(scheme: SignatureScheme, msg: CertifiedMessage) -> bytes:
    """Canonical bytes of the certificate assertion the PDS must have
    signed for ``msg`` — a pure function of the message's own fields
    (source, unit, attached key), served from ``_ASSERTION_BYTES``.

    Raises ``TypeError`` for foreign key objects, like
    ``scheme.key_repr``.
    """
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


def ver_cert(
    scheme: SignatureScheme,
    public: PdsPublic,
    receiver: int,
    alleged_source: int,
    expected_unit: int,
    expected_round: int,
    raw: Any,
) -> CertifiedMessage | None:
    """Fig. 3 VER-CERT.  Returns the accepted message, or None on reject.

    Checks source and destination here; the unit/round pin and steps 2-3
    are :func:`verify_certified_body`.
    """
    msg = _parse(raw)
    # step 1: format and time.  A message signed with the BROADCAST
    # destination is addressed to everyone: the signature still binds
    # source, unit and round (which is what step 1's replay/reflection
    # protection rests on), so accepting the sentinel for any receiver is
    # sound — the per-receiver destination only ever narrowed who may
    # accept, and the sender explicitly chose not to narrow.
    if msg is None or msg.source != alleged_source:
        return None
    if msg.destination != receiver and msg.destination != BROADCAST:
        return None
    return verify_certified_body(scheme, public, expected_unit, expected_round, msg)


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
    if msg is None or msg.unit != expected_unit or msg.round != expected_round:
        return None
    try:
        cert_bytes = _cert_bytes_for(scheme, msg)
        body = _signed_bytes_for(msg)
    except TypeError:
        return None
    # step 2: certificate, then step 3: message signature
    if not verify_pds_signature_bytes(public, cert_bytes, msg.certificate):
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
    """VER-CERT over one round's worth of receipts.

    ``items`` are ``(alleged_source, raw)`` pairs as produced by
    DISPERSE; the result list is index-aligned (``None`` = rejected), so
    acceptance order — and with it the transcript — is exactly that of
    running :func:`ver_cert` sequentially.

    Each step runs for the whole round before the next, in Fig. 3's
    order: the format/time checks (free), then every certificate under
    ``v_cert``, then the message signatures of the certified messages
    only.  So a signature is checked only under a key certified for the
    current unit, and a flood under fresh keys gets no further than the
    certificate.  Each step answers its checks from the verification
    cache first (:func:`_resolve_checks`).
    """
    results: list[CertifiedMessage | None] = [None] * len(items)
    candidates: list[tuple[int, CertifiedMessage, bytes, bytes]] = []
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
        candidates.append((index, msg, cert_bytes, body))
    # step 2: certificate
    pds_key = SchnorrVerifyKey(y=public.public_key)
    certified = _resolve_checks(
        scheme_for_group(public.group),
        [(pds_key, cert_bytes, msg.certificate) for _, msg, cert_bytes, _ in candidates],
    )
    candidates = [candidate for candidate, ok in zip(candidates, certified) if ok]
    # step 3: message signature
    signed = _resolve_checks(
        scheme, [(msg.verify_key, body, msg.signature) for _, msg, _, body in candidates]
    )
    for (index, msg, _, _), ok in zip(candidates, signed):
        if ok:
            results[index] = msg
    return results


def _resolve_checks(
    scheme: SignatureScheme, checks: Sequence[tuple[Any, bytes, Any]]
) -> list[bool]:
    """Verdicts of ``(verify_key, message, signature)`` checks under one
    scheme: cache hits first; a Schnorr scheme checks the rest in one
    :meth:`~repro.crypto.schnorr.SchnorrScheme.batch_verify` call, and if
    that fails, or for any other scheme, each goes through
    :func:`cached_verify` alone, which attributes every rejection."""
    outcomes: list[bool] = [False] * len(checks)
    pending: list[tuple[int, Any]] = []  # (index, cache bucket key)
    for index, (verify_key, message, signature) in enumerate(checks):
        bucket_key, cached = lookup_verify(scheme, verify_key, message, signature)
        if cached is None:
            pending.append((index, bucket_key))
        else:
            outcomes[index] = cached
    if len(pending) >= 2 and isinstance(scheme, SchnorrScheme):
        if scheme.batch_verify([checks[index] for index, _ in pending]):
            for index, bucket_key in pending:
                outcomes[index] = True
                store_verify(bucket_key, checks[index][1], checks[index][2], True)
            pending = []
    for index, _ in pending:
        outcomes[index] = cached_verify(scheme, *checks[index])
    return outcomes


def _parse(raw: Any) -> CertifiedMessage | None:
    """The certified message ``raw`` is: honest traffic already carries
    the object :func:`certify` returned; only adversarial injections
    arrive as plain tuples, or as a :class:`CertifiedMessage` of another
    arity."""
    if isinstance(raw, CertifiedMessage):
        return raw if len(raw) == 8 else None
    return CertifiedMessage(raw) if fits(raw, CERTIFIED) else None
