"""Protocol AUTH-SEND (paper Fig. 4), packaged as a Transport.

AUTH-SEND = CERTIFY + DISPERSE: the sender wraps its message with
:func:`~repro.core.certify.certify` and floods it with
:class:`~repro.core.disperse.DisperseService`; the receiver runs
``VER-CERT`` on every DISPERSE receipt and *accepts* exactly the properly
certified ones (with ``w`` pinned to two rounds before the current one —
when the message must have been sent).  A message to
:data:`~repro.wire.BROADCAST` is certified and dispersed once, and every
other node accepts it.

Because this class implements :class:`~repro.pds.transport.Transport`
(with ``delay = 2``), every AL-model sub-protocol in this package —
threshold signing, share refresh, echo broadcast — runs over it
unchanged.  That substitution is the entire §4 transformation of the
paper: ``ULS = ALS where each message is sent via AUTH-SEND``.  So how
bodies travel, the refresh wire format of :mod:`repro.wire`, is this
class's decision alone.
"""

from __future__ import annotations

from typing import Any

from repro.core.certify import CertifiedMessage, certify, ver_cert_many
from repro.core.disperse import DisperseService
from repro.core.keystore import KeyStore
from repro.crypto.hashing import encode_for_hash
from repro.pds.keys import PdsPublic
from repro.pds.transport import Accepted, Transport
from repro.perf.cache import canonical_body_key, canonical_encoding, seed_canonical_key
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext
from repro.wire import BROADCAST, PACK, aggregated_wire, unpack

__all__ = ["AuthSendTransport", "AcceptedCertified", "AUTH_TAG", "FORWARD_TAG"]

#: the DISPERSE tag of AUTH-SEND traffic
AUTH_TAG = "auth"
#: the DISPERSE tag of :meth:`AuthSendTransport.forward`
FORWARD_TAG = "pa3"


# encode_for_hash of a pack ("pa3b", raws) is a 2-item list header, the
# kind, then the members' list: its tag, its length, each member's encoding
_PACK_HEADER = b"L" + (2).to_bytes(8, "big") + encode_for_hash("pa3b") + b"L"


def _pack(raws: list) -> tuple:
    """The forward body ``("pa3b", raws)`` (:data:`repro.wire.PA3`).  A
    pack is a new object, so its DISPERSE dedup key is seeded here from
    its members' encodings, which CERTIFY seeded, instead of each relay
    walking them again."""
    pack = ("pa3b", tuple(raws))
    try:
        members = [canonical_encoding(raw) for raw in raws]
    except TypeError:
        return pack  # keyed on use, like any body that cannot be encoded
    seed_canonical_key(pack, b"".join((_PACK_HEADER, len(raws).to_bytes(8, "big"), *members)))
    return pack


class AcceptedCertified(Accepted):
    """An accepted message plus the certified message it arrived in, a
    whole pack on the aggregated wire (PARTIAL-AGREEMENT step 3 forwards
    those)."""

    __slots__ = ("raw",)

    def __init__(self, sender: int, body: Any, raw: CertifiedMessage) -> None:
        super().__init__(sender, body)
        self.raw = raw


class AuthSendTransport(Transport):
    """See module docstring.

    Args:
        keystore: the node's per-unit local keys (signing side and the
            expected unit on the verifying side).
        public: the PDS public parameters; ``public.public_key`` is the
            ROM-anchored global verification key ``v_cert``.
        disperse: the node's shared DISPERSE engine.
        tag: DISPERSE tag separating this transport's traffic.
        wire: the refresh wire format (:mod:`repro.wire`); with
            ``"aggregated"``, :meth:`send` buffers until :meth:`flush`,
            which the owner calls last in its step.
    """

    delay = 2

    def __init__(
        self,
        keystore: KeyStore,
        public: PdsPublic,
        disperse: DisperseService,
        tag: str = AUTH_TAG,
        *,
        wire: str = "paper",
    ) -> None:
        self.aggregated = aggregated_wire(wire)
        self.keystore = keystore
        self.public = public
        self.disperse = disperse
        self.tag = tag
        self._accepted: list[AcceptedCertified] = []
        #: analysis log
        self.accepted_log: list[tuple[int, int, Any]] = []  # (round, src, body)
        # first round seen per time unit; the acceptance log keeps the
        # current and previous unit only (it used to grow one entry per
        # acceptance for the whole run — unbounded across units)
        self._unit_first_round: dict[int, int] = {}
        # aggregated wire: this round's bodies per destination, and the
        # certified messages to forward, keyed for distinctness
        self._outbox: dict[int, list[Any]] = {}
        self._forwards: dict[Any, CertifiedMessage] = {}

    def begin_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Run VER-CERT over this round's DISPERSE receipts.

        The owner must have called ``disperse.on_round`` already (the
        DISPERSE engine is shared among several consumers); this method
        only consumes the receipts under its tag.  A buffer left from an
        earlier round is dropped unsent: a broken node's memory is the
        adversary's (§2.2).
        """
        self._accepted = []
        self._outbox = {}
        self._forwards = {}
        unit = ctx.info.time_unit
        if unit not in self._unit_first_round:
            self._unit_first_round[unit] = ctx.info.round
            floor = self._unit_first_round.get(unit - 1, ctx.info.round)
            self.accepted_log = [
                entry for entry in self.accepted_log if entry[0] >= floor
            ]
            for old in [u for u in self._unit_first_round if u < unit - 1]:
                del self._unit_first_round[old]
        expected_round = ctx.info.round - self.delay
        expected_unit = self.keystore.unit
        receipts = self.disperse.receipts(self.tag)
        if not receipts:
            return
        # one round's receipts go through VER-CERT together (certificates,
        # then the certified bodies, each from the cache or checked on its
        # own); the accept/reject outcome per receipt is identical to
        # sequential ver_cert — see repro.core.certify.ver_cert_many.
        for msg in ver_cert_many(
            self.keystore.scheme,
            self.public,
            receiver=ctx.node_id,
            expected_unit=expected_unit,
            expected_round=expected_round,
            items=receipts,
        ):
            if msg is None:
                continue
            for body in unpack(msg.message, PACK):
                self._accepted.append(AcceptedCertified(msg.source, body, msg))
                self.accepted_log.append((ctx.info.round, msg.source, body))

    def send(self, ctx: NodeContext, receiver: int, body: Any) -> None:
        """CERTIFY + DISPERSE to ``receiver``, a node id or ``BROADCAST``,
        which VER-CERT accepts at any receiver; on the aggregated wire at
        :meth:`flush`.  Silently a no-op when the local keys are ``φ`` — a
        node without keys cannot authenticate (it has already alerted;
        its peers simply won't hear from it)."""
        if self.aggregated:
            self._outbox.setdefault(receiver, []).append(body)
        else:
            self._certify_and_disperse(ctx, receiver, body)

    def send_to_all(self, ctx: NodeContext, body: Any) -> None:
        """Round-wide send; on the aggregated wire one send to
        ``BROADCAST`` replaces the ``n-1`` point-to-point ones."""
        if self.aggregated:
            self.send(ctx, BROADCAST, body)
        else:
            super().send_to_all(ctx, body)

    def forward(self, ctx: NodeContext, raws: list[CertifiedMessage]) -> None:
        """Re-disperse accepted certified messages to every other node
        (PARTIAL-AGREEMENT step 3): now, as one ``pa3b`` pack to each, on
        the paper wire; at :meth:`flush`, as one pack of the round's
        distinct forwards to ``BROADCAST``, on the aggregated wire."""
        if self.aggregated:
            for raw in raws:
                self._forwards.setdefault(canonical_body_key(raw), raw)
            return
        pack = _pack(raws)
        for receiver in range(ctx.n):
            if receiver != ctx.node_id:
                self.disperse.send(ctx, receiver, pack, tag=FORWARD_TAG)

    def flush(self, ctx: NodeContext) -> None:
        """Send what the aggregated wire buffered: one ``("pack",
        bodies)`` per destination, in send order, certified with the keys
        in force now, and the forwards."""
        outbox, self._outbox = self._outbox, {}
        for receiver, bodies in outbox.items():
            self._certify_and_disperse(ctx, receiver, ("pack", tuple(bodies)))
        if self._forwards:
            pack = _pack(list(self._forwards.values()))
            self._forwards = {}
            self.disperse.send(ctx, BROADCAST, pack, tag=FORWARD_TAG)

    def _certify_and_disperse(self, ctx: NodeContext, receiver: int, body: Any) -> None:
        msg = certify(
            self.keystore.scheme,
            self.keystore.current,
            message=body,
            source=ctx.node_id,
            destination=receiver,
            round_w=ctx.info.round,
        )
        if msg is None:
            return
        self.disperse.send(ctx, receiver, msg, tag=self.tag)

    def accepted_view(self) -> list[AcceptedCertified]:
        return self._accepted
