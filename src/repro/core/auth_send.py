"""Protocol AUTH-SEND (paper Fig. 4), packaged as a Transport.

AUTH-SEND = CERTIFY + DISPERSE: the sender wraps its message with
:func:`~repro.core.certify.certify` and floods it with
:class:`~repro.core.disperse.DisperseService`; the receiver runs
``VER-CERT`` on every DISPERSE receipt and *accepts* exactly the properly
certified ones (with ``w`` pinned to two rounds before the current one —
when the message must have been sent).

Because this class implements :class:`~repro.pds.transport.Transport`
(with ``delay = 2``), every AL-model sub-protocol in this package —
threshold signing, share refresh, echo broadcast — runs over it
unchanged.  That substitution is the entire §4 transformation of the
paper: ``ULS = ALS where each message is sent via AUTH-SEND``.
"""

from __future__ import annotations

from typing import Any

from repro.core.certify import CertifiedMessage, certify, ver_cert_many
from repro.core.disperse import DisperseService
from repro.core.keystore import KeyStore
from repro.pds.keys import PdsPublic
from repro.pds.transport import Accepted, Transport
from repro.perf.volume import BROADCAST, aggregated_wire
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext

__all__ = ["AuthSendTransport", "AcceptedCertified"]


class AcceptedCertified(Accepted):
    """An accepted message plus the certified message it arrived in
    (PARTIAL-AGREEMENT step 3 re-disperses those)."""

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
        wire: the refresh wire format (:mod:`repro.perf.volume`); with
            ``"aggregated"``, :meth:`send_to_all` sends one
            broadcast-certified flood instead of ``n-1`` dispersals.
    """

    delay = 2

    def __init__(
        self,
        keystore: KeyStore,
        public: PdsPublic,
        disperse: DisperseService,
        tag: str = "auth",
        *,
        wire: str = "paper",
    ) -> None:
        self.aggregated = aggregated_wire(wire)
        self.keystore = keystore
        self.public = public
        self.disperse = disperse
        self.tag = tag
        self._accepted: list[AcceptedCertified] = []
        #: statistics + analysis logs
        self.sent_count = 0
        self.rejected_count = 0
        self.accepted_log: list[tuple[int, int, Any]] = []  # (round, src, body)
        # first round seen per time unit; the acceptance log keeps the
        # current and previous unit only (it used to grow one entry per
        # acceptance for the whole run — unbounded across units)
        self._unit_first_round: dict[int, int] = {}

    def begin_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Run VER-CERT over this round's DISPERSE receipts.

        The owner must have called ``disperse.on_round`` already (the
        DISPERSE engine is shared among several consumers); this method
        only consumes the receipts under its tag.
        """
        self._accepted = []
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
                self.rejected_count += 1
                continue
            self._accepted.append(AcceptedCertified(msg.source, msg.message, msg))
            self.accepted_log.append((ctx.info.round, msg.source, msg.message))

    def send(self, ctx: NodeContext, receiver: int, body: Any) -> None:
        """CERTIFY + DISPERSE.  Silently a no-op when the local keys are
        ``φ`` — a node without keys cannot authenticate (it has already
        alerted; its peers simply won't hear from it)."""
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
        self.sent_count += 1
        self.disperse.send(ctx, receiver, msg, tag=self.tag)

    def send_broadcast(self, ctx: NodeContext, body: Any) -> None:
        """One certificate, one flood, every node accepts.

        The message is certified with the :data:`~repro.perf.volume.BROADCAST`
        destination sentinel — VER-CERT accepts it for any receiver — and
        carried by a single DISPERSE broadcast flood instead of ``n-1``
        per-destination dispersals.  Same no-op-on-φ contract as
        :meth:`send`.
        """
        msg = certify(
            self.keystore.scheme,
            self.keystore.current,
            message=body,
            source=ctx.node_id,
            destination=BROADCAST,
            round_w=ctx.info.round,
        )
        if msg is None:
            return
        self.sent_count += 1
        self.disperse.broadcast(ctx, msg, tag=self.tag)

    def send_to_all(self, ctx: NodeContext, body: Any) -> None:
        """Round-wide send; on the aggregated wire a single broadcast
        certificate replaces the ``n-1`` per-destination ones."""
        if self.aggregated:
            self.send_broadcast(ctx, body)
        else:
            super().send_to_all(ctx, body)

    def accepted_view(self) -> list[AcceptedCertified]:
        return self._accepted
