"""Nodes and node programs.

A :class:`NodeProgram` is the per-node protocol code (the paper's π,
stored in ROM: the simulator never lets an adversary replace it).  All
*mutable* protocol state must live in attributes of the program object —
on a break-in the adversary receives the program object itself and may
read and mutate every attribute, which models the paper's "the adversary
learns the current internal state ... and may also modify it".

A :class:`NodeContext` is handed to the program every round; it carries
the round label, the node's fresh per-round randomness ``r_{i,w}``, the
ROM, any external inputs for this round (the paper's ``x_{i,w}``), and
the send/output effectors.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.sim.clock import Phase, RoundInfo
from repro.sim.messages import Envelope
from repro.sim.rom import Rom

__all__ = ["NodeContext", "NodeProgram", "Node", "ALERT"]

#: The distinguished alert output entry (Definition 11).
ALERT = ("alert",)

_NO_INBOX: list[Envelope] = []


class NodeContext:
    """Per-round execution context for one node (see module docstring).

    ``rng`` may be either a ready ``random.Random`` or a zero-arg factory
    for one: deriving the paper's ``r_{i,w}`` costs a PRF evaluation plus
    a ``Random`` construction per node per round, which dominates
    crypto-free workloads whose programs never draw randomness.  The
    factory is invoked (once) on first access, so the stream any program
    actually sees is identical either way.

    ``inbox`` optionally binds the round's delivered messages, so that
    :meth:`channel_view` can serve them from shared per-channel bins:
    every sub-protocol of a multiplexing program reads only its own
    channel instead of re-scanning the whole inbox.
    """

    def __init__(
        self,
        node_id: int,
        n: int,
        info: RoundInfo,
        rng: Any,
        rom: Rom,
        external_inputs: list[Any],
        inbox: list[Envelope] | None = None,
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.info = info
        if callable(rng):
            self._rng = None
            self._rng_factory = rng
        else:
            self._rng = rng
            self._rng_factory = None
        self.rom = rom
        self.external_inputs = external_inputs
        self.inbox = _NO_INBOX if inbox is None else inbox
        self._bins: dict[str, list[Envelope]] | None = None
        self.outbox: list[Envelope] = []
        self.outputs: list[Any] = []

    @property
    def rng(self) -> Any:
        rng = self._rng
        if rng is None and self._rng_factory is not None:
            rng = self._rng = self._rng_factory()
        return rng

    # -- inbox views -------------------------------------------------------

    def channel_view(self, inbox: list[Envelope], channel: str) -> list[Envelope]:
        """The envelopes of ``inbox`` on ``channel``, in arrival order.

        When ``inbox`` is this round's bound inbox, the answer comes from
        per-channel bins built in one pass on first use (every consumer
        shares them); otherwise it is a plain scan.  Either way the result
        is the exact order-preserving filter — callers must treat the
        returned list as read-only.
        """
        if inbox is self.inbox:
            bins = self._bins
            if bins is None:
                bins = self._bins = {}
                for envelope in inbox:
                    bin_ = bins.get(envelope.channel)
                    if bin_ is None:
                        bin_ = bins[envelope.channel] = []
                    bin_.append(envelope)
            return bins.get(channel, _NO_INBOX)
        return [envelope for envelope in inbox if envelope.channel == channel]

    # -- effectors ---------------------------------------------------------

    def send(self, receiver: int, channel: str, payload: Any) -> None:
        """Queue a message for delivery at the start of the next round."""
        if receiver == self.node_id:
            raise ValueError("no self-links; handle local delivery in the program")
        if not (0 <= receiver < self.n):
            raise ValueError(f"receiver {receiver} out of range")
        self.outbox.append(
            Envelope(self.node_id, receiver, channel, payload, self.info.round)
        )

    def fanout(self, receivers: list[int], channel: str, payload: Any) -> None:
        """Queue the same payload for several receivers.

        Semantically identical to calling :meth:`send` once per receiver
        (same validation, same outbox order); exists because flood-style
        protocols queue hundreds of thousands of envelopes per run and the
        per-call attribute traffic of ``send`` is measurable at that scale.
        """
        node_id = self.node_id
        n = self.n
        round_number = self.info.round
        append = self.outbox.append
        for receiver in receivers:
            if receiver == node_id:
                raise ValueError("no self-links; handle local delivery in the program")
            if not (0 <= receiver < n):
                raise ValueError(f"receiver {receiver} out of range")
            append(Envelope(node_id, receiver, channel, payload, round_number))

    def broadcast(self, channel: str, payload: Any) -> None:
        """Send the same payload to every other node (n-1 point-to-point
        messages; *not* a consistent-broadcast primitive).  Delegates to
        the validated :meth:`fanout` fast path — same checks, same outbox
        order as n-1 :meth:`send` calls."""
        node_id = self.node_id
        self.fanout(
            [receiver for receiver in range(self.n) if receiver != node_id],
            channel,
            payload,
        )

    def output(self, entry: Any) -> None:
        """Append an entry to this node's local output (the global output
        of the execution concatenates these, §2.1)."""
        self.outputs.append(entry)

    def alert(self) -> None:
        """Emit the special alert signal (Definition 11)."""
        self.output(ALERT)

    def write_rom(self, key: str, value: Any) -> None:
        """Write to the node's data ROM — only legal during set-up (§2.2)."""
        if self.info.phase is not Phase.SETUP:
            raise PermissionError("ROM writes are only allowed during the set-up phase")
        self.rom.write(key, value)


class NodeProgram(ABC):
    """Abstract per-node protocol.

    Subclasses must call ``super().__init__()`` and keep all mutable state
    on ``self`` so break-ins capture it.
    """

    def __init__(self) -> None:
        self.node_id: int = -1
        self.n: int = 0

    def bind(self, node_id: int, n: int) -> None:
        """Called once by the runner before the first round."""
        self.node_id = node_id
        self.n = n

    @abstractmethod
    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Execute one communication round.

        ``inbox`` holds the messages delivered at the start of this round
        (i.e. sent in the previous round).  Sends and outputs go through
        ``ctx``.
        """


class Node:
    """Runtime wrapper: program + ROM + break-in status (the runner
    stamps the node's outputs into ``execution.node_outputs``)."""

    def __init__(self, node_id: int, program: NodeProgram, n: int) -> None:
        self.node_id = node_id
        self.program = program
        self.rom = Rom()
        self.broken = False
        self.pending_inbox: list[Envelope] = []
        program.bind(node_id, n)
