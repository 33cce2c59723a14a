"""Memoization caches for the protocol hot paths.

Two caches live here:

* :class:`VerificationCache` — memoizes signature verification outcomes
  under the *exact* triple ``(key_repr, message, signature)``.  Both
  positive and negative outcomes are cached; because the key is exact
  (no digests, no truncation) a cached entry can only ever be served for
  a bytewise-identical query, so an adversary-forged signature — which by
  definition differs from any previously verified one — always misses and
  goes through the full verifier.  Entries are bucketed per verification
  key, which makes key-rotation invalidation O(1): when a ULS node
  installs a new unit's local keys the superseded key's whole bucket is
  dropped (see :meth:`repro.core.keystore.KeyStore.install_pending`).
  Rotation invalidation is hygiene, not a safety requirement — stale
  entries are unreachable anyway because VER-CERT pins the expected time
  unit before any signature check — but it keeps the cache from carrying
  dead weight across refresh units.

* :class:`CanonicalKeyCache` — memoizes the canonical dedup encoding of
  wire bodies *by object identity*.  The simulator passes message bodies
  by reference (one flood shares one body object across all relays and
  receivers), so DISPERSE's per-round ``encode_for_hash`` of the same
  body collapses to a dict lookup.  CERTIFY seeds the entry of every
  Schnorr-keyed message it returns (:func:`seed_canonical_key`), so an
  honest certified message is never encoded here at all.  Entries hold a
  strong reference to the body, so an id can never be recycled while its
  entry is alive.

The caches only ever memoize pure functions under exact keys, so they are
transcript-neutral: every execution is bit-identical to the same execution
computed without them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.crypto.hashing import encode_for_hash
from repro.perf.registry import register_cache_clearer

__all__ = [
    "VerificationCache",
    "verification_cache",
    "cached_verify",
    "lookup_verify",
    "store_verify",
    "invalidate_verify_key",
    "CanonicalKeyCache",
    "canonical_body_key",
    "canonical_encoding",
    "canonical_probe",
    "seed_canonical_key",
]


class VerificationCache:
    """Bucketed LRU of signature-verification outcomes.

    The outer map is an LRU over verification keys (their canonical
    ``key_repr``); each bucket maps ``(message, signature)`` to the bool
    the full verifier returned.  ``max_keys`` bounds the number of live
    keys, ``max_entries_per_key`` bounds each bucket (protocols verify a
    bounded number of messages per key per unit, so per-key FIFO eviction
    is effectively never hit in practice).
    """

    def __init__(self, max_keys: int = 1024, max_entries_per_key: int = 4096) -> None:
        self.max_keys = max_keys
        self.max_entries_per_key = max_entries_per_key
        self._buckets: OrderedDict[Hashable, OrderedDict[Hashable, bool]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.skips = 0  # queries with uncacheable keys or signatures
        self.invalidations = 0

    def lookup(self, key_repr: Hashable, message: bytes, signature: Any) -> bool | None:
        bucket = self._buckets.get(key_repr)
        if bucket is None:
            self.misses += 1
            return None
        result = bucket.get((message, signature))
        if result is None:
            self.misses += 1
            return None
        self._buckets.move_to_end(key_repr)
        self.hits += 1
        return result

    def store(self, key_repr: Hashable, message: bytes, signature: Any, result: bool) -> None:
        bucket = self._buckets.get(key_repr)
        if bucket is None:
            bucket = self._buckets[key_repr] = OrderedDict()
            while len(self._buckets) > self.max_keys:
                self._buckets.popitem(last=False)
        bucket[(message, signature)] = result
        while len(bucket) > self.max_entries_per_key:
            bucket.popitem(last=False)

    def invalidate_key(self, key_repr: Hashable) -> int:
        """Drop the whole bucket of one verification key (key rotation).
        Returns the number of entries dropped."""
        bucket = self._buckets.pop(key_repr, None)
        if bucket is None:
            return 0
        self.invalidations += 1
        return len(bucket)

    def clear(self) -> None:
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "skips": self.skips,
            "invalidations": self.invalidations,
            "entries": len(self),
            "keys": len(self._buckets),
        }


_VERIFY_CACHE = VerificationCache()
register_cache_clearer(_VERIFY_CACHE.clear)


def verification_cache() -> VerificationCache:
    """The process-global verification cache."""
    return _VERIFY_CACHE


def _cacheable_key(scheme: Any, verify_key: Any, signature: Any) -> Hashable | None:
    """The bucket key, or None when the query cannot be cached safely
    (foreign key type, or a key or signature object that is not hashable
    — e.g. adversarial garbage off the wire)."""
    try:
        key_repr = scheme.key_repr(verify_key)
        hash(key_repr)
        hash(signature)
    except (TypeError, NotImplementedError):
        return None
    return key_repr


def cached_verify(scheme: Any, verify_key: Any, message: bytes, signature: Any) -> bool:
    """``scheme.verify`` through the verification cache.

    An outcome is only ever stored after the full verifier ran (or, at
    the batched call sites, after a whole batch passed the
    random-linear-combination check — see ``docs/PROTOCOLS.md`` §12 for
    the security argument); a cached ``False`` is just as valid as a
    cached ``True`` because the key pins the exact signature bytes.
    """
    key_repr = _cacheable_key(scheme, verify_key, signature)
    if key_repr is None:
        _VERIFY_CACHE.skips += 1
        return scheme.verify(verify_key, message, signature)
    cached = _VERIFY_CACHE.lookup(key_repr, message, signature)
    if cached is not None:
        return cached
    result = bool(scheme.verify(verify_key, message, signature))
    _VERIFY_CACHE.store(key_repr, message, signature, result)
    return result


def lookup_verify(
    scheme: Any, verify_key: Any, message: bytes, signature: Any
) -> tuple[Hashable | None, bool | None]:
    """Split-phase cache probe for batched call sites.

    Returns ``(bucket_key, cached_result)``: the bucket key is ``None``
    when the query is uncacheable, the result is ``None`` on a miss.
    Callers that verify through a batch use :func:`store_verify` with the
    returned key afterwards.
    """
    key_repr = _cacheable_key(scheme, verify_key, signature)
    if key_repr is None:
        _VERIFY_CACHE.skips += 1
        return None, None
    return key_repr, _VERIFY_CACHE.lookup(key_repr, message, signature)


def store_verify(
    bucket_key: Hashable | None, message: bytes, signature: Any, result: bool
) -> None:
    """Record a verification outcome under a key from :func:`lookup_verify`
    (no-op when the key was uncacheable)."""
    if bucket_key is not None:
        _VERIFY_CACHE.store(bucket_key, message, signature, result)


def invalidate_verify_key(scheme: Any, verify_key: Any) -> int:
    """Drop all cached outcomes under one verification key (rotation)."""
    try:
        key_repr = scheme.key_repr(verify_key)
    except (TypeError, NotImplementedError):
        return 0
    return _VERIFY_CACHE.invalidate_key(key_repr)


class CanonicalKeyCache:
    """Identity-keyed memo of a pure function of one object.

    Entries hold a strong reference to the object, so ``id`` reuse is
    impossible while an entry is alive.  The size bound is a leak guard,
    not a working-set fit — live wire objects number far below it — so
    eviction is simple FIFO, keeping the hit path to one dict lookup.
    """

    def __init__(self, maxsize: int = 16384) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[int, tuple[Any, Any]] = OrderedDict()

    def get(self, obj: Any, compute: Callable[[Any], Any]) -> Any:
        entry = self._entries.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
        value = compute(obj)
        self.put(obj, value)
        return value

    def put(self, obj: Any, value: Any) -> None:
        """Seed the memo with a value the caller just computed (e.g.
        CERTIFY storing the signed-body bytes of the message it returns,
        so no verifier of that object recomputes them)."""
        self._entries[id(obj)] = (obj, value)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_CANONICAL = CanonicalKeyCache()
register_cache_clearer(_CANONICAL.clear)


def _encode_or_repr(body: Any) -> Hashable:
    try:
        return encode_for_hash(body)
    except TypeError:
        return repr(body)


def canonical_body_key(body: Any) -> Hashable:
    """The canonical dedup key of a wire body — ``encode_for_hash`` when
    encodable, ``repr`` otherwise — memoized by object identity.

    ``repr`` serves only bodies holding a value that cannot be encoded,
    which only injected traffic carries (a ``str`` key never equals a
    ``bytes`` one).  The cache only removes the re-encoding cost for
    bodies that flow through many relay hops and dedup checks per round.
    """
    return _CANONICAL.get(body, _encode_or_repr)


def seed_canonical_key(body: Any, encoding: bytes) -> None:
    """Record ``encoding``, which must equal ``encode_for_hash(body)``,
    as the canonical key of ``body`` (CERTIFY builds it from the bytes it
    has just signed)."""
    _CANONICAL.put(body, encoding)


def canonical_encoding(body: Any) -> bytes:
    """``encode_for_hash(body)``, memoized by object identity.

    Shares :class:`CanonicalKeyCache` entries with
    :func:`canonical_body_key`: for encodable bodies the cached value *is*
    the canonical encoding, so signing paths (which need the raw bytes,
    not just a dedup key) reuse the same memo.  Unencodable bodies raise
    ``TypeError`` exactly like ``encode_for_hash`` — the cached ``repr``
    fallback is a ``str``, never ``bytes``, so the type check below is an
    exact encodability test.
    """
    key = canonical_body_key(body)
    if type(key) is bytes:
        return key
    raise TypeError(f"cannot encode {type(body).__name__} for hashing")


def _canonical_miss(body: Any) -> Hashable:
    value = _encode_or_repr(body)
    _CANONICAL.put(body, value)
    return value


def canonical_probe() -> tuple[dict[int, tuple[Any, Any]], Callable[[Any], Hashable]]:
    """``(entries, miss)`` for loops that inline the memo probe itself.

    The caller probes ``entries.get(id(body))`` and, after the identity
    check ``entry[0] is body``, uses ``entry[1]``; on a miss it calls
    ``miss(body)``, which computes, records and returns the key.
    """
    return _CANONICAL._entries, _canonical_miss
