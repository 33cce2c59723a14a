"""The aggregated refresh wire format: broadcast certification, receipt
aggregation and sampled helpers.

Everything else in :mod:`repro.perf` keeps the wire traffic bit-identical
and only changes how fast each envelope is processed.  The wire format is
different: it is a parameter of each protocol instance,
``wire="paper" | "aggregated"`` (:data:`WIRES`), and it decides *which*
envelopes are sent on the refresh/DKG hot path.  ``"paper"`` (the
default) is the paper-literal wire; ``"aggregated"`` applies three
mechanisms, each with a provable fallback so protocol outcomes (accepted
messages, rejected-dealer sets, key histories, blame attribution) stay
identical to the paper wire:

* **broadcast certification** — a round-wide message is signed once with
  the :data:`BROADCAST` destination sentinel instead of once per receiver;
  VER-CERT accepts the sentinel for any receiver (the signature still
  binds source, unit and round, which is what replay protection needs —
  the per-receiver destination only ever narrowed *who may accept*, and a
  round-wide message is by construction addressed to everyone).  The
  DISPERSE layer carries it with a single two-phase echo flood
  (``O(f·n)`` envelopes) instead of ``n-1`` point-to-point dispersals
  (``O(n·f)`` each with per-destination duplication).

* **receipt aggregation** — per-session bodies that every node sends to
  every node each round (threshold-signer acks/reveals/partials,
  PARTIAL-AGREEMENT step-3 re-dispersals) are packed into one signed
  plural body per node per round; VER-CERT (``ver_cert_many``) then
  checks one certificate and one signature for all of them.  Secret-bearing bodies (``ts-deal`` nonce shares, ``rf-blind``
  sub-shares) are never packed — they are per-receiver private values.

* **sampled need/help** — share-recovery responders are chosen by the
  seed-deterministic :func:`responder_sample` of size ``O(t)`` instead of
  all ``n-1`` holders; a failed recovery escalates the next request to
  full fan-out, so liveness matches the paper wire after one extra
  refresh and blame attribution is unaffected (help messages are never
  blamed).

Because the wire traffic differs, parity is checked at the protocol
outcome level (:func:`repro.analysis.digest.outcome_digest`, rejected
sets, key histories) rather than by transcript digest.  Every node of a
network must use the same wire format.
"""

from __future__ import annotations

from repro.crypto.hashing import tagged_hash

__all__ = ["BROADCAST", "WIRES", "aggregated_wire", "responder_sample", "sample_size"]

#: the refresh wire formats a protocol instance can speak
WIRES = ("paper", "aggregated")

#: Destination sentinel for broadcast-certified messages.  Real node ids
#: are non-negative, so the sentinel can never collide with a receiver.
BROADCAST = -1

_SAMPLE_TAG = "repro/volume/responder-sample"


def aggregated_wire(wire: str) -> bool:
    """Whether ``wire`` names the aggregated format (``ValueError`` for
    anything but one of :data:`WIRES`)."""
    if wire not in WIRES:
        raise ValueError(f"wire must be one of {WIRES}, got {wire!r}")
    return wire == "aggregated"


def sample_size(n: int, t: int) -> int:
    """Number of sampled helpers: ``2t+1`` holders guarantee ``t+1``
    honest consistent sub-shares even if ``t`` sampled nodes are corrupted,
    capped at the ``n-1`` nodes that exist besides the requester."""
    return min(n - 1, 2 * t + 1)


def responder_sample(unit: int, requester: int, n: int, t: int) -> tuple[int, ...]:
    """Seed-deterministic helper sample for a share-recovery request.

    Ranks every node except the requester by
    ``H(tag, unit, requester, node)`` and takes the lowest
    :func:`sample_size` of them.  Every node computes the same sample from
    public inputs alone, so helpers self-select without coordination and
    the requester knows exactly whom to expect help from.  The hash
    ranking spreads the helper load across units and requesters instead of
    always electing the lowest ids.
    """
    prefix = (
        unit.to_bytes(8, "big", signed=True)
        + requester.to_bytes(8, "big", signed=True)
    )
    candidates = sorted(
        (node for node in range(n) if node != requester),
        key=lambda node: tagged_hash(
            _SAMPLE_TAG, prefix, node.to_bytes(8, "big", signed=True)
        ),
    )
    return tuple(sorted(candidates[: sample_size(n, t)]))
