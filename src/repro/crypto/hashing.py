"""Hashing utilities: domain-separated SHA-256, hash-to-integer, a
canonical value encoding, and a PRF.

Every hash in this package is keyed by a domain tag (:func:`tagged_hash`)
so distinct protocol uses (Schnorr challenges, Merkle nodes, certificate
bodies, ...) live in disjoint domains — a message signed in one role can
never collide with a message signed in another.  This mirrors the
paper's insistence on binding signatures to ``(m, i, j, u, w)`` tuples
(Fig. 3).
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache

__all__ = [
    "sha256",
    "tagged_hash",
    "hash_to_int",
    "encode_for_hash",
    "register_record",
    "prf",
    "DIGEST_BYTES",
]

DIGEST_BYTES = 32


def sha256(data: bytes) -> bytes:
    """Plain SHA-256 digest."""
    return hashlib.sha256(data).digest()


@lru_cache(maxsize=256)
def _tag_digest(tag: str) -> bytes:
    # the protocol uses a small fixed set of domain tags; hashing each
    # once is pure and saves a SHA-256 per tagged_hash call
    return sha256(tag.encode("utf-8"))


def tagged_hash(tag: str, *chunks: bytes) -> bytes:
    """Domain-separated hash: ``H(H(tag) || H(tag) || chunk_0 || ...)``.

    The double-tag prefix follows the BIP-340 convention; it makes
    cross-domain collisions require breaking SHA-256 itself.  Each chunk is
    length-prefixed so concatenation is unambiguous.
    """
    tag_digest = _tag_digest(tag)
    h = hashlib.sha256()
    h.update(tag_digest)
    h.update(tag_digest)
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "big"))
        h.update(chunk)
    return h.digest()


#: exact type -> (encoding prefix, field names) of the record types that
#: encode by value; filled by :func:`register_record`
_RECORDS: dict[type, tuple[bytes, tuple[str, ...]]] = {}


def register_record(cls: type, *fields: str) -> None:
    """Make instances of exactly ``cls`` (not of a subclass) encodable:
    ``R``, the class name, then the tuple of ``fields``.  No tuple
    encoding starts with ``R``, so a record never encodes like the tuple
    of its own fields."""
    header = b"L" + len(fields).to_bytes(8, "big")
    _RECORDS[cls] = (b"R" + encode_for_hash(cls.__name__) + header, fields)


def encode_for_hash(value: object) -> bytes:
    """Deterministically encode common values for hashing.

    Supports ``bytes``, ``str``, ``int``, ``bool``, ``None``, (nested)
    tuples and lists of those, and the types of :func:`register_record`.
    Every encoding is self-delimiting and starts with a type tag, so
    distinct structures never encode to the same byte string.  The
    encoding is also the dedup key of a wire body, so a list and a tuple
    must encode apart (docs/PROTOCOLS.md §12).
    """
    # exact-type dispatch first — ints and tuples dominate protocol
    # traffic, and ``type(x) is int`` safely excludes bool.  Subclasses
    # (IntEnum, CertifiedMessage, ...) fall through to the isinstance
    # chain below; both paths produce identical bytes.
    kind = type(value)
    if kind is int:
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"I" + len(raw).to_bytes(8, "big") + raw
    if kind is tuple:
        parts = [encode_for_hash(item) for item in value]
        return b"L" + len(parts).to_bytes(8, "big") + b"".join(parts)
    if kind is str:
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(8, "big") + raw
    if kind is bytes:
        return b"B" + len(value).to_bytes(8, "big") + value
    if kind is bool:
        return b"T" if value else b"F"
    if value is None:
        return b"N"
    record = _RECORDS.get(kind)
    if record is not None:
        prefix, fields = record
        return prefix + b"".join(encode_for_hash(getattr(value, name)) for name in fields)
    if isinstance(value, bytes):
        return b"B" + len(value).to_bytes(8, "big") + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"S" + len(raw).to_bytes(8, "big") + raw
    if isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1, "big", signed=True)
        return b"I" + len(raw).to_bytes(8, "big") + raw
    if isinstance(value, tuple):
        parts = [encode_for_hash(item) for item in value]
        return b"L" + len(parts).to_bytes(8, "big") + b"".join(parts)
    if isinstance(value, list):
        parts = [encode_for_hash(item) for item in value]
        return b"A" + len(parts).to_bytes(8, "big") + b"".join(parts)
    raise TypeError(f"cannot encode {type(value).__name__} for hashing")


def hash_to_int(tag: str, modulus: int, *values: object) -> int:
    """Hash arbitrary values into ``[0, modulus)``.

    Expands the digest with a counter until enough bits are available, so
    the output is statistically close to uniform for any modulus size.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    encoded = [encode_for_hash(v) for v in values]
    needed_bits = modulus.bit_length() + 128  # 128 extra bits kill modulo bias
    acc = 0
    counter = 0
    while acc.bit_length() < needed_bits:
        digest = tagged_hash(tag, counter.to_bytes(4, "big"), *encoded)
        acc = (acc << (8 * DIGEST_BYTES)) | int.from_bytes(digest, "big")
        counter += 1
    return acc % modulus


def prf(key: bytes, *values: object) -> bytes:
    """HMAC-SHA256 pseudorandom function over encoded values."""
    body = b"".join(encode_for_hash(v) for v in values)
    return hmac.new(key, body, hashlib.sha256).digest()
