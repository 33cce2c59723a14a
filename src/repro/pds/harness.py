"""AL-model PDS node program: the paper's §3.2 "operation" loop.

Hosts the threshold signer and the refresh service over the direct (AL)
transport and implements the §3.2 execution conventions:

- a ``("sign", m)`` external input makes the node output
  ``("asked-to-sign", m, u)`` and run ``Sign`` on ⟨m, u⟩;
- when the node obtains a valid signature it outputs ``("signed", m, u)``;
- at each refreshment phase it runs ``Rfr``, erasing old shares;
- signature verification is the public algorithm
  :func:`~repro.pds.threshold_schnorr.verify_pds_signature`, runnable by
  the (unbreakable) verifier without node interaction.

The same services run inside the UL-model ULS scheme
(:mod:`repro.core.uls`) with the AUTH-SEND transport instead — that swap
*is* the paper's §4 transformation.
"""

from __future__ import annotations

from typing import Any

from repro.pds.keys import PdsNodeState
from repro.pds.refresh import RefreshService
from repro.pds.threshold_schnorr import ThresholdSigner, pds_message_bytes
from repro.pds.transport import DirectTransport, Transport
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram

__all__ = ["PdsNodeProgram", "required_refresh_rounds"]


def required_refresh_rounds(transport_delay: int = 1) -> int:
    """Refresh rounds a schedule must provide for the Rfr protocol."""
    return 4 * transport_delay + 1


class PdsNodeProgram(NodeProgram):
    """One AL-model signer node (see module docstring).

    Args:
        state: this node's PDS state from
            :func:`~repro.pds.keys.deal_initial_states` (the set-up
            phase's ``Gen``).
        transport: defaults to the direct AL transport.
        wire: the refresh wire format of the signer, ``"paper"`` or
            ``"aggregated"`` (:mod:`repro.wire`).
    """

    def __init__(
        self, state: PdsNodeState, transport: Transport | None = None, *,
        wire: str = "paper",
    ) -> None:
        super().__init__()
        self.state = state
        self.transport = transport or DirectTransport(channel="pds")
        self.signer = ThresholdSigner(state, self.transport, wire=wire)
        self.refresher = RefreshService(state, self.transport)
        #: message_bytes -> (m, u) for output formatting
        self._pending: dict[bytes, tuple[Any, int]] = {}
        #: (m, u) -> signature, for inspection by experiments
        self.signatures: dict[tuple[Any, int], Any] = {}
        self.refresh_outcomes: list[tuple[str, int]] = []

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.info.phase is Phase.SETUP:
            if ctx.info.is_phase_end and "pds_public_key" not in ctx.rom:
                ctx.write_rom("pds_public_key", self.state.public.public_key)
            return

        self.transport.begin_round(ctx, inbox)

        if ctx.info.phase is Phase.REFRESH and ctx.info.is_phase_start:
            self.refresher.begin(ctx, ctx.info.time_unit)
        self.refresher.on_round(ctx)
        for outcome, unit in self.refresher.events():
            self.refresh_outcomes.append((outcome, unit))
            if outcome == "failed":
                ctx.alert()

        self.signer.on_round(ctx)

        for value in ctx.external_inputs:
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "sign":
                message = value[1]
                unit = ctx.info.time_unit
                ctx.output(("asked-to-sign", message, unit))
                message_bytes = pds_message_bytes(message, unit)
                self._pending[message_bytes] = (message, unit)
                self.signer.request(ctx, message_bytes)

        for message_bytes, signature in self.signer.completed():
            if message_bytes in self._pending:
                message, unit = self._pending.pop(message_bytes)
                self.signatures[(message, unit)] = signature
                ctx.output(("signed", message, unit))
        for message_bytes in self.signer.failed():
            if message_bytes in self._pending:
                message, unit = self._pending.pop(message_bytes)
                ctx.output(("sign-failed", message, unit))
