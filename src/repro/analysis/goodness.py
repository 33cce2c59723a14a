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

:class:`GoodnessObserver` reads a run one round at a time, live or
through :func:`~repro.sim.runner.replay`.  It records the ``(m, i, j, u,
w)`` stamp of every certified message a node originates, the first
delivered properly certified copy (Def. 17(a)) of every other stamp, the
first round each node is broken in each unit, and each refreshment
phase's final operational set.  Its :meth:`~GoodnessObserver.report`
then decides: a copy whose sender never sent a matching stamp (Def.
17(b)) while unbroken with usable keys (Def. 17(c)) is a forgery.  Every
DISPERSE frame is read, to a node or to ``BROADCAST``, and so is each
certified message in a PARTIAL-AGREEMENT step-3 pack; each distinct body
is encoded and verified once, and each delivered body object is read
once per round.  A run's :class:`~repro.analysis.verdict.Verdict`
owns one, and the headline numbers of experiment E3 — observed(GOOD)
across seeds — come from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.core.certify import CertifiedMessage, verify_certified_body
from repro.core.disperse import DISPERSE_CHANNEL, unframe
from repro.crypto.hashing import encode_for_hash
from repro.crypto.signature import SignatureScheme
from repro.perf.cache import canonical_body_key
from repro.pds.keys import PdsPublic
from repro.sim.clock import Phase
from repro.sim.runner import RunObserver
from repro.sim.transcript import Execution, RoundRecord
from repro.wire import CERTIFIED, PA3, fits, unpack

__all__ = ["ForgedMessage", "GoodnessReport", "GoodnessObserver"]


@dataclass(frozen=True)
class ForgedMessage:
    """A delivered, properly certified message its sender never sent."""

    round: int
    message: CertifiedMessage
    bad_type: str  # "BAD2" (rogue key) or "BAD3" (genuine key)


@dataclass
class GoodnessReport:
    """Outcome of :meth:`GoodnessObserver.report`."""

    forged: list[ForgedMessage] = field(default_factory=list)
    bad1_failures: list[tuple[int, int]] = field(default_factory=list)  # (unit, node)

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


def _certified_members(body: Any):
    """The candidate certified messages of a DISPERSE body: the body, or
    each member of a PARTIAL-AGREEMENT step-3 ``pa3b`` pack, which both
    wires send (one per session and receiver on the paper wire, one per
    node and round to ``BROADCAST`` on the aggregated wire).  A certified
    ``("pack", bodies)`` of the aggregated wire is one certified message,
    with one stamp."""
    for raw in unpack(body, PA3):
        if fits(raw, CERTIFIED):
            yield raw


def _stamp(msg: CertifiedMessage) -> Any:
    """The message's ``(m, i, j, u, w)``, in a hashable form."""
    value = (msg.message, msg.source, msg.destination, msg.unit, msg.round)
    try:
        return encode_for_hash(value)
    except TypeError:
        return repr(value)


def _key_repr(scheme: SignatureScheme, verify_key: Any) -> tuple | None:
    try:
        return tuple(scheme.key_repr(verify_key))
    except TypeError:
        return None


class GoodnessObserver(RunObserver):
    """Definitions 17–18, read round by round (see module docstring).

    It reads ``record.sent`` and ``record.delivered``, so on a
    ``compact_records=True`` run it must be attached live.
    """

    def __init__(self, public: PdsPublic, scheme: SignatureScheme) -> None:
        self.public = public
        self.scheme = scheme
        # canonical body key -> (key, stamp, message, key repr), and whether
        # the body is properly certified, once asked
        self._bodies: dict[Hashable, tuple] = {}
        self._certified: dict[Hashable, bool] = {}
        self._sent: set[Any] = set()  # stamps of originated messages
        self._key_reprs: dict[tuple[int, int], set[tuple]] = {}  # (node, unit) -> reprs used
        # stamp -> (round, message): the first delivered properly certified
        # copy of a stamp not yet originated
        self._delivered: dict[Any, tuple[int, CertifiedMessage]] = {}
        self._first_broken: dict[tuple[int, int], int] = {}  # (node, unit) -> round
        self._refresh_end: dict[int, frozenset[int]] = {}  # unit -> operational set

    def _body(self, raw: Any) -> tuple:
        key = canonical_body_key(raw)
        body = self._bodies.get(key)
        if body is None:
            msg = raw if isinstance(raw, CertifiedMessage) else CertifiedMessage(raw)
            body = self._bodies[key] = (
                key, _stamp(msg), msg, _key_repr(self.scheme, msg.verify_key)
            )
        return body

    def on_round(self, execution: Execution, record: RoundRecord) -> None:
        info = record.info
        for node in record.broken:
            self._first_broken.setdefault((node, info.time_unit), info.round)
        if info.phase is Phase.REFRESH:
            self._refresh_end[info.time_unit] = record.operational

        sent = self._sent
        # a flood hands one payload object to every relay, and a second
        # read of one (sender, payload) in a round adds nothing
        originated: set[tuple[int, int]] = set()
        for envelope in record.sent:
            if envelope.channel != DISPERSE_CHANNEL:
                continue
            origin = (envelope.sender, id(envelope.payload))
            if origin in originated:
                continue
            originated.add(origin)
            # only the origination counts as "sent"
            frame = unframe(envelope.payload, relayed=False)
            if frame is None:
                continue
            for raw in _certified_members(frame[3]):
                _, stamp, msg, key_repr = self._body(raw)
                if envelope.sender != msg.source:
                    continue  # someone forwarding another's message
                sent.add(stamp)
                if key_repr is not None:
                    self._key_reprs.setdefault((msg.source, msg.unit), set()).add(key_repr)

        delivered = self._delivered
        # relayed copies of one string share its body object, and a second
        # copy in a round can neither add a stamp nor change a verdict, so
        # each body is read once per round (the record keeps it alive)
        read: set[int] = set()
        for envelopes in record.delivered.values():
            for envelope in envelopes:
                if envelope.channel != DISPERSE_CHANNEL:
                    continue
                frame = unframe(envelope.payload)
                if frame is None or id(frame[3]) in read:
                    continue
                read.add(id(frame[3]))
                for raw in _certified_members(frame[3]):
                    key, stamp, msg, _ = self._body(raw)
                    if stamp in sent or stamp in delivered:
                        continue
                    certified = self._certified.get(key)
                    if certified is None:
                        certified = self._certified[key] = verify_certified_body(
                            self.scheme, self.public, expected_unit=msg.unit,
                            expected_round=msg.round, raw=raw,
                        ) is not None
                    if certified:
                        delivered[stamp] = (info.round, msg)

    def report(
        self,
        key_history: dict[int, dict[int, str]],
        certified_keys: dict[int, dict[int, tuple]],
    ) -> GoodnessReport:
        """Classify what the observer has seen.

        Args:
            key_history: per node, per unit: "ok" / "failed" from the
                keystores (``{i: dict(program.keystore.history)}``); unit 0
                is implicitly "ok" (the set-up certifies every node's key).
            certified_keys: per node, per unit: the canonical repr of the
                key the node actually got certified
                (``{i: program.keystore.key_reprs}``).  It and the
                keys seen in the node's own sent traffic are the genuine
                set, which tells BAD3 (genuine key) from BAD2 (rogue key).
        """
        report = GoodnessReport()

        def keys_usable(node: int, unit: int) -> bool:
            return unit == 0 or key_history.get(node, {}).get(unit) == "ok"

        for stamp, (round_number, msg) in self._delivered.items():
            if stamp in self._sent:
                continue
            # Def. 17(c): the sender must have been unbroken and with
            # usable keys for this to count as a forgery
            broken_at = self._first_broken.get((msg.source, msg.unit))
            if broken_at is not None and broken_at <= msg.round:
                continue
            if not keys_usable(msg.source, msg.unit):
                continue
            genuine = set(self._key_reprs.get((msg.source, msg.unit), ()))
            certified = certified_keys.get(msg.source, {}).get(msg.unit)
            if certified is not None:
                genuine.add(tuple(certified))
            used = _key_repr(self.scheme, msg.verify_key)
            bad_type = "BAD3" if used in genuine else "BAD2"
            report.forged.append(
                ForgedMessage(round=round_number, message=msg, bad_type=bad_type)
            )

        # BAD1: operational nodes that ended a refresh with phi keys
        for unit, operational_at_end in self._refresh_end.items():
            if unit == 0:
                continue
            for node in operational_at_end:
                if not keys_usable(node, unit):
                    report.bad1_failures.append((unit, node))
        return report

