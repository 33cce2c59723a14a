"""The performance layer: caches and precomputation.

Everything in this package is *transcript-neutral*: it changes
wall-clock time, never protocol behaviour.  Each optimisation has one
implementation; the per-seed digests committed in ``BENCH_E14.json`` and
``BENCH_E16.json`` pin the behaviour (``tests/test_golden_digests.py``),
and ``docs/PROTOCOLS.md`` §12 states the security argument for each piece.

Components:

* :mod:`repro.perf.registry` — the cache-clearer registry
  (:func:`clear_all_caches`) and the garbage-collection policy;
* :mod:`repro.perf.cache` — the signature-verification cache and the
  identity-keyed canonical-encoding cache;
* :mod:`repro.perf.fixed_base` — fixed-base exponentiation windows used
  by :class:`repro.crypto.group.SchnorrGroup` for ``g`` and each key in
  force (``v_cert``, the local keys, the key images), dropped with the
  key by the rotation hooks of :mod:`repro.perf.cache` and
  :mod:`repro.perf.share_image`;
* :mod:`repro.perf.share_image` — memoized Feldman share images;
* :mod:`repro.perf.volume` — the aggregated refresh wire format's
  broadcast sentinel and responder sampling.

The round-wide VER-CERT entry point is
:func:`repro.core.certify.ver_cert_many`; it checks each signature on
its own, certificates before bodies.
"""

from repro.perf.cache import (
    CanonicalKeyCache,
    VerificationCache,
    cached_verify,
    canonical_body_key,
    invalidate_verify_key,
    verification_cache,
)
from repro.perf.fixed_base import FixedBaseWindow
from repro.perf.registry import clear_all_caches, register_cache_clearer
from repro.perf.volume import BROADCAST, responder_sample, sample_size

__all__ = [
    "BROADCAST",
    "responder_sample",
    "sample_size",
    "register_cache_clearer",
    "clear_all_caches",
    "VerificationCache",
    "verification_cache",
    "cached_verify",
    "invalidate_verify_key",
    "CanonicalKeyCache",
    "canonical_body_key",
    "FixedBaseWindow",
]
