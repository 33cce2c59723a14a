"""Good/bad execution classification (Definitions 17, 18, 22–24).

The security proof of Theorem 14 partitions executions into GOOD ones
(no forged messages; every operational node holds keys and a certificate)
and three classes of bad ones, each corresponding to a cryptographic
failure:

- **BAD1**: an operational node ends a refreshment phase with ``φ`` keys
  (a liveness failure of the AL-model PDS — Lemma 26);
- **BAD2**: a forged message whose attached key is *not* the one its
  alleged sender got certified — i.e. the adversary obtained a rogue
  certificate (a forgery against the PDS — Lemma 27);
- **BAD3**: a forged message under the sender's *genuine* certified key —
  a forgery against the centralized scheme CS (Lemma 28).

This module re-derives that classification from a finished execution's
transcript: it scans every delivered DISPERSE payload for properly
certified messages (Def. 17(a)), checks whether the alleged sender
actually sent a matching ``(m, i, j, u, w)`` (Def. 17(b)), and whether the
sender was unbroken with usable keys (Def. 17(c)).  Every DISPERSE frame
is read, to a node or to ``BROADCAST``, and so is each certified message
in a PARTIAL-AGREEMENT step-3 pack.  The headline numbers of experiment
E3 — observed(GOOD) across seeds — come from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.certify import CertifiedMessage, verify_certified_body
from repro.core.disperse import DISPERSE_CHANNEL, unframe
from repro.crypto.hashing import encode_for_hash
from repro.crypto.signature import SignatureScheme
from repro.pds.keys import PdsPublic
from repro.sim.transcript import Execution
from repro.wire import CERTIFIED, PA3, fits, well_formed

__all__ = ["ForgedMessage", "GoodnessReport", "classify_execution"]


@dataclass(frozen=True)
class ForgedMessage:
    """A delivered, properly certified message its sender never sent."""

    round: int
    message: CertifiedMessage
    bad_type: str  # "BAD2" (rogue key) or "BAD3" (genuine key)


@dataclass
class GoodnessReport:
    """Outcome of :func:`classify_execution`."""

    forged: list[ForgedMessage] = field(default_factory=list)
    bad1_failures: list[tuple[int, int]] = field(default_factory=list)  # (unit, node)
    certified_keys: dict[tuple[int, int], set[tuple]] = field(default_factory=dict)

    @property
    def good(self) -> bool:
        return not self.forged and not self.bad1_failures

    @property
    def classification(self) -> str:
        if self.bad1_failures:
            return "BAD1"
        for item in self.forged:
            if item.bad_type == "BAD2":
                return "BAD2"
        if self.forged:
            return "BAD3"
        return "GOOD"


def _raw_certified_payloads(payload: Any, relayed: bool = True):
    """The candidate certified messages of a DISPERSE payload (see
    :func:`~repro.core.disperse.unframe`): its body, or each member of a
    ``pa3b`` pack, whose members the paper wire sends one per frame."""
    frame = unframe(payload, relayed=relayed)
    if frame is None:
        return
    body = frame[3]
    for raw in body[1] if well_formed(body, PA3) else (body,):
        if fits(raw, CERTIFIED):
            yield raw


def _stamp(msg: CertifiedMessage) -> Any:
    """The message's ``(m, i, j, u, w)``, in a hashable form."""
    return _key((msg.message, msg.source, msg.destination, msg.unit, msg.round))


def _key(value: Any) -> Any:
    try:
        return encode_for_hash(value)
    except TypeError:
        return repr(value)


def classify_execution(
    execution: Execution,
    public: PdsPublic,
    scheme: SignatureScheme,
    key_history: dict[int, dict[int, str]],
    t: int,
    certified_keys: dict[int, dict[int, tuple]] | None = None,
) -> GoodnessReport:
    """Classify one execution (see module docstring).

    Args:
        execution: the finished run.
        public / scheme: PDS public parameters and the CS scheme (needed
            to recognize properly certified messages).
        key_history: per node, per unit: "ok" / "failed" from the
            keystores (``{i: dict(program.keystore.history)}``); unit 0 is
            implicitly "ok" (set-up issues everyone's certificate).
        t: the adversary bound, for the BAD1 check.
        certified_keys: per node, per unit: the canonical repr of the key
            the node actually got certified
            (``{i: program.keystore.key_reprs}``).  Used to discriminate
            BAD2 (rogue key) from BAD3 (genuine key); when omitted, the
            keys observed in the node's own sent traffic are used as the
            genuine set.
    """
    report = GoodnessReport()
    verified_cache: dict[Any, CertifiedMessage | None] = {}

    # -- collect everything genuinely sent, and everything delivered --------
    sent_stamps: set[Any] = set()
    sent_key_reprs: dict[tuple[int, int], set[tuple]] = {}  # (node, unit) -> reprs used
    for record in execution.records:
        for envelope in record.sent:
            if envelope.channel != DISPERSE_CHANNEL:
                continue
            # only the origination counts as "sent"
            for raw in _raw_certified_payloads(envelope.payload, relayed=False):
                msg = CertifiedMessage(raw)
                if envelope.sender != msg.source:
                    continue  # someone forwarding another's message
                sent_stamps.add(_stamp(msg))
                try:
                    repr_key = tuple(scheme.key_repr(msg.verify_key))
                except TypeError:
                    continue
                sent_key_reprs.setdefault((msg.source, msg.unit), set()).add(repr_key)

    broken_by_round = {record.info.round: record.broken for record in execution.records}

    def sender_broken_up_to(node: int, unit: int, round_w: int) -> bool:
        for record in execution.rounds_in_unit(unit):
            if record.info.round > round_w:
                break
            if node in broken_by_round.get(record.info.round, frozenset()):
                return True
        return False

    def keys_usable(node: int, unit: int) -> bool:
        if unit == 0:
            return True
        return key_history.get(node, {}).get(unit) == "ok"

    seen_forged: set[Any] = set()
    for record in execution.records:
        for receiver, envelopes in record.delivered.items():
            for envelope in envelopes:
                if envelope.channel != DISPERSE_CHANNEL:
                    continue
                for raw in _raw_certified_payloads(envelope.payload):
                    cache_key = _key(raw)
                    if cache_key not in verified_cache:
                        candidate = CertifiedMessage(raw)
                        verified_cache[cache_key] = verify_certified_body(
                            scheme,
                            public,
                            expected_unit=candidate.unit,
                            expected_round=candidate.round,
                            raw=raw,
                        )
                    msg = verified_cache[cache_key]
                    if msg is None:
                        continue  # not properly certified: not a forgery
                    stamp = _stamp(msg)
                    if stamp in sent_stamps or stamp in seen_forged:
                        continue
                    # Def. 17(c): the sender must have been unbroken and
                    # with usable keys for this to count as a forgery
                    if sender_broken_up_to(msg.source, msg.unit, msg.round):
                        continue
                    if not keys_usable(msg.source, msg.unit):
                        continue
                    seen_forged.add(stamp)
                    genuine = set(sent_key_reprs.get((msg.source, msg.unit), set()))
                    if certified_keys is not None:
                        certified = certified_keys.get(msg.source, {}).get(msg.unit)
                        if certified is not None:
                            genuine.add(tuple(certified))
                    try:
                        used = tuple(scheme.key_repr(msg.verify_key))
                    except TypeError:
                        used = ()
                    bad_type = "BAD3" if used in genuine else "BAD2"
                    report.forged.append(
                        ForgedMessage(round=record.info.round, message=msg, bad_type=bad_type)
                    )

    # -- BAD1: operational nodes that ended a refresh with phi keys ---------
    for unit in range(1, execution.units()):
        refresh_rounds = [
            record
            for record in execution.rounds_in_unit(unit)
            if record.info.phase.value == "refresh"
        ]
        if not refresh_rounds:
            continue
        operational_at_end = refresh_rounds[-1].operational
        for node in operational_at_end:
            if not keys_usable(node, unit):
                report.bad1_failures.append((unit, node))

    return report
