"""Rotation-bucketed memoization of Feldman share images.

A Feldman commitment ``(g^{a_0}, ..., g^{a_t})`` is evaluated at many
points over its lifetime: every zero-dealing is checked at the receiver's
own index, every partial signature is checked at the emitter's index by
every node, and ``_try_combine`` needs the same images again each round a
session stays open.  The image ``g^{f(x)} = Π elements[k]^{x^k}`` is a
pure function of ``(group, elements, x)``, so outcomes are memoized under
that exact key.

Entries are grouped into one *bucket per commitment* (the rotation
bucket: a refreshed key has a new commitment vector and therefore a new
bucket).  :meth:`ShareImageCache.invalidate` drops a superseded
commitment's whole bucket in O(1) —
:meth:`repro.pds.keys.PdsNodeState.install_share` calls it whenever a
refresh replaces the key commitment, so a pre-refresh image can never
be consulted for a post-refresh key.  As with the verification cache,
this is hygiene on top of exactness: the bucket key pins the exact
element vector, so a stale bucket is unreachable by construction;
invalidation keeps the cache from carrying dead weight across units.

A miss evaluates the image with plain exponentiations: the exponents
``x^k ≤ n^t`` are a few bits long, so each ``pow`` is a handful of
squarings, and no per-element window could pay for its table.

Everything here is transcript-neutral: the computed value is exactly
``Π pow(elements[k], x^k mod q, p)``, the reference :func:`_plain_image`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from repro.perf.registry import register_cache_clearer

__all__ = [
    "ShareImageCache",
    "share_image_cache",
    "share_image_value",
    "invalidate_share_images",
]


def _plain_image(group, elements: Sequence[int], x: int) -> int:
    """The reference evaluation ``Π elements[k]^{x^k}`` (no caching)."""
    acc = group.identity
    power_of_x = 1
    q = group.q
    for element in elements:
        acc = group.multiply(acc, group.power(element, power_of_x))
        power_of_x = (power_of_x * x) % q
    return acc


class ShareImageCache:
    """Bucketed LRU of share-image evaluations, one bucket per commitment.

    The outer key is ``(p, elements)`` — the group modulus plus the exact
    commitment vector — so distinct groups and distinct (even
    adversarially crafted) commitments can never share entries.
    ``max_buckets`` bounds live commitments (LRU eviction);
    ``max_entries_per_bucket`` bounds each bucket's evaluated points
    (protocols evaluate at most ``n`` indices per commitment, far below
    the bound).
    """

    def __init__(self, max_buckets: int = 512, max_entries_per_bucket: int = 4096) -> None:
        self.max_buckets = max_buckets
        self.max_entries_per_bucket = max_entries_per_bucket
        #: ``(p, elements)`` -> evaluation point -> image
        self._buckets: OrderedDict[tuple, dict[int, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def image(self, group, elements: tuple[int, ...], x: int) -> int:
        key = (group.p, elements)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = {}
            while len(self._buckets) > self.max_buckets:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(key)
        cached = bucket.get(x)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = bucket[x] = _plain_image(group, elements, x)
        while len(bucket) > self.max_entries_per_bucket:
            bucket.pop(next(iter(bucket)))
        return value

    def has_bucket(self, group, elements: tuple[int, ...]) -> bool:
        """Whether a rotation bucket for this commitment is live (the
        invalidation regression tests probe this)."""
        return (group.p, tuple(elements)) in self._buckets

    def invalidate(self, group, elements: tuple[int, ...]) -> int:
        """Drop one commitment's whole bucket (key rotation).  Returns the
        number of image entries dropped."""
        bucket = self._buckets.pop((group.p, tuple(elements)), None)
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
            "invalidations": self.invalidations,
            "entries": len(self),
            "buckets": len(self._buckets),
        }


_SHARE_IMAGES = ShareImageCache()
register_cache_clearer(_SHARE_IMAGES.clear)


def share_image_cache() -> ShareImageCache:
    """The process-global share-image cache."""
    return _SHARE_IMAGES


def share_image_value(group, elements: tuple[int, ...], x: int) -> int:
    """``Π elements[k]^{x^k}`` through the cache."""
    return _SHARE_IMAGES.image(group, elements, x)


def invalidate_share_images(group, elements: tuple[int, ...]) -> int:
    """Drop the rotation bucket of a superseded commitment (see
    :meth:`repro.pds.keys.PdsNodeState.install_share`)."""
    return _SHARE_IMAGES.invalidate(group, elements)
