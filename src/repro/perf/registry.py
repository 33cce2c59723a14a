"""The cache-clearer registry and the process's garbage-collection policy.

Every cache in the package memoizes a pure function under an exact key,
so none of them can change what a protocol does, only how fast it runs
(docs/PROTOCOLS.md §12).  Each registers a clearer here, and
:func:`clear_all_caches` empties them all: tests and benchmarks call it
to start from cold caches.
"""

from __future__ import annotations

import gc
from typing import Callable

__all__ = ["register_cache_clearer", "clear_all_caches"]

_CLEARERS: list[Callable[[], None]] = []

# Flood-style rounds allocate hundreds of thousands of envelopes and wire
# tuples per run; nearly all die by refcount, but every generation-0 pass
# still walks the live tail of that churn, and at E8 scale the walks cost
# more than the protocol's own Python work.  The widened gen-0 threshold
# makes cycle collection run ~300x less often.  Collection never affects
# semantics, only when the (rare, long-lived) cycles are reclaimed.
_GC_TUNED_THRESHOLD = (200_000, 50, 25)
gc.set_threshold(*_GC_TUNED_THRESHOLD)


def register_cache_clearer(fn: Callable[[], None]) -> Callable[[], None]:
    """Register a callable that drops one cache's entries; returns it so
    the call can be used as a decorator."""
    _CLEARERS.append(fn)
    return fn


def clear_all_caches() -> None:
    """Empty every registered cache (verification, canonical keys,
    challenges, fixed-base windows, share images).  Never changes results,
    only makes the next operations cold."""
    for fn in _CLEARERS:
        fn()
