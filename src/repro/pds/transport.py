"""Transport abstraction: how protocol messages travel.

The paper's central transformation (§4) takes a PDS scheme whose
sub-protocols run over *authenticated reliable links* and re-runs the same
logic with every message wrapped in AUTH-SEND.  We capture that by coding
all distributed-signature sub-protocols (dealing, acks, partial
signatures, share renewal, ...) against this small :class:`Transport`
interface:

- in the AL model, :class:`DirectTransport` maps ``send`` straight onto
  the node's links (delivery in 1 round);
- in the UL model, :class:`repro.core.auth_send.AuthSendTransport` maps
  ``send`` onto CERTIFY + DISPERSE (acceptance 2 rounds after sending).

``delay`` tells session protocols how many rounds separate a send from
its acceptance, so the same session code steps correctly over either
transport.

Per-round usage contract: the owner program calls ``begin_round`` with
the round's inbox once per round *before* any sub-protocol logic runs;
sub-protocols then read ``accepted_view`` and call ``send`` or
``send_to_all``, which sends to every other node (AUTH-SEND on the
aggregated wire sends it once, to :data:`repro.wire.BROADCAST`).

Shape-check contract: a broken node can send (and in the UL model
certify) any body at all.  Each sub-protocol checks every body once
against its table in :mod:`repro.wire` where it takes it from
``accepted_view``, dropping what does not fit; handlers then unpack
without ``try``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.sim.messages import Envelope
from repro.sim.node import NodeContext

__all__ = ["Transport", "DirectTransport", "Accepted"]


class Accepted:
    """A message accepted by the transport this round.

    ``sender`` is authenticated to whatever level the transport provides:
    claimed-only for :class:`DirectTransport` in the UL model, certified
    for AUTH-SEND, genuinely authentic for :class:`DirectTransport` in the
    AL model (where links are authenticated by assumption).
    """

    __slots__ = ("sender", "body")

    def __init__(self, sender: int, body: Any) -> None:
        self.sender = sender
        self.body = body

    def __repr__(self) -> str:
        return f"Accepted(sender={self.sender}, body={self.body!r})"


class Transport(ABC):
    """See module docstring."""

    #: rounds from ``send`` to the receiver's ``accepted_view``
    delay: int = 1

    @abstractmethod
    def begin_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Ingest this round's inbox; must be called exactly once per round
        before any sends."""

    @abstractmethod
    def send(self, ctx: NodeContext, receiver: int, body: Any) -> None:
        """Queue ``body`` for the receiver."""

    @abstractmethod
    def accepted_view(self) -> list[Accepted]:
        """Messages accepted this round (replaced every ``begin_round``).

        The transport's own list, not a copy: sub-protocols iterate it
        several times per round and must not mutate it.
        """

    def send_to_all(self, ctx: NodeContext, body: Any) -> None:
        """Point-to-point send to every other node (n-1 messages).

        This is *not* a consistent broadcast: a corrupted sender can send
        different bodies to different receivers.  Protocols that need
        consistency must layer an agreement step on top (the PDS relies
        on acked Feldman commitments, the ULS on PARTIAL-AGREEMENT).
        """
        for receiver in range(ctx.n):
            if receiver != ctx.node_id:
                self.send(ctx, receiver, body)


class DirectTransport(Transport):
    """Messages travel on the raw links, one round of delay.

    In the AL model this *is* an authenticated reliable channel.  In the
    UL model it provides nothing (the adversary owns the links) — the
    E5 baseline experiments use exactly this gap.
    """

    delay = 1

    def __init__(self, channel: str = "direct") -> None:
        self.channel = channel
        self._accepted: list[Accepted] = []

    def begin_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self._accepted = [
            Accepted(sender=env.sender, body=env.payload)
            for env in ctx.channel_view(inbox, self.channel)
        ]

    def send(self, ctx: NodeContext, receiver: int, body: Any) -> None:
        ctx.send(receiver, self.channel, body)

    def accepted_view(self) -> list[Accepted]:
        return self._accepted
