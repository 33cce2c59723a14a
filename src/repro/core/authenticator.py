"""The proactive authenticator Λ (paper §5).

Λ is a *compiler*: given any protocol π written for the AL model, Λ(π)
runs in the UL model and t-emulates π (Theorem 30), while being
(t,t)-aware (Proposition 31).  The construction reuses the ULS machinery
wholesale — the paper's observation is that ULS already equips every node
with certified per-unit keys, so π's messages can ride the same AUTH-SEND
channel instead of invoking the threshold signer per message:

- the *top layer* runs π unchanged: its ``send`` calls are intercepted
  and routed through AUTH-SEND, and its inbox is reassembled from the
  accepted (properly certified) messages;
- the *bottom layer* is ULS's URfr: fresh keys + certificates every
  refreshment phase, PDS share refresh, alerts on failure.

The compiled program additionally emits ``("app-sent", dst, channel,
payload)`` and ``("app-recv", src, channel, payload)`` output lines;
these land in the execution's tamper-evident global output and are what
:mod:`repro.core.views` uses to compute the Definition-10 internal and
external views and detect impersonation.
"""

from __future__ import annotations

from typing import Any

from repro.core.keystore import LocalKeys
from repro.core.uls import UlsCore
from repro.crypto.signature import SignatureScheme
from repro.pds.keys import PdsNodeState
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.wire import LAMBDA, fits

__all__ = ["AuthenticatedProgram", "compile_protocol"]


class _TopLayerContext:
    """The NodeContext façade handed to π: identical surface, but sends
    are routed through AUTH-SEND and logged."""

    def __init__(self, real: NodeContext, core: UlsCore) -> None:
        self._real = real
        self._core = core
        self.node_id = real.node_id
        self.n = real.n
        self.info = real.info
        self.rom = real.rom
        self.external_inputs = real.external_inputs
        self.outputs = real.outputs

    @property
    def rng(self) -> Any:
        # forwarded lazily: resolving it here would force the per-round
        # randomness derivation even when π never draws from it
        return self._real.rng

    def channel_view(self, inbox: list[Envelope], channel: str) -> list[Envelope]:
        # π's inbox is reassembled, never the bound one — plain filter
        return [envelope for envelope in inbox if envelope.channel == channel]

    def send(self, receiver: int, channel: str, payload: Any) -> None:
        if receiver == self.node_id or not (0 <= receiver < self.n):
            raise ValueError(f"bad receiver {receiver}")
        self._core.app_send(self._real, receiver, (channel, payload))
        self._real.output(("app-sent", receiver, channel, payload))

    def broadcast(self, channel: str, payload: Any) -> None:
        for receiver in range(self.n):
            if receiver != self.node_id:
                self.send(receiver, channel, payload)

    def output(self, entry: Any) -> None:
        self._real.output(entry)

    def alert(self) -> None:
        self._real.alert()

    def write_rom(self, key: str, value: Any) -> None:
        self._real.write_rom(key, value)


class AuthenticatedProgram(NodeProgram):
    """Λ(π) for one node.

    Args:
        inner: the top-layer protocol π (any :class:`NodeProgram`).
        state / scheme / initial_keys: ULS bootstrap material from
            :func:`~repro.core.uls.build_uls_states`.
        wire: the refresh wire format of the ULS layer (see
            :class:`~repro.core.uls.UlsCore`).

    During the set-up phase π runs over the raw (reliable) links; from
    then on its traffic is authenticated.  π's messages are delivered two
    rounds after sending (the AUTH-SEND delay) — the emulated AL adversary
    simply runs the network at half speed.
    """

    def __init__(
        self,
        inner: NodeProgram,
        state: PdsNodeState,
        scheme: SignatureScheme,
        initial_keys: LocalKeys,
        *,
        wire: str = "paper",
    ) -> None:
        super().__init__()
        self.inner = inner
        self.core = UlsCore(state, scheme, initial_keys, node_id=state.node_id, wire=wire)

    def bind(self, node_id: int, n: int) -> None:
        super().bind(node_id, n)
        self.inner.bind(node_id, n)

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.info.phase is Phase.SETUP:
            if ctx.info.is_phase_end and "pds_public_key" not in ctx.rom:
                ctx.write_rom("pds_public_key", self.core.state.public.public_key)
            # π runs natively during the adversary-free set-up
            self.inner.step(ctx, inbox)
            return

        self.core.on_round(ctx, inbox)

        top_inbox: list[Envelope] = []
        for source, body in self.core.app_accepted():
            if not fits(body, LAMBDA):
                continue
            channel, payload = body
            ctx.output(("app-recv", source, channel, payload))
            top_inbox.append(
                Envelope(
                    sender=source,
                    receiver=ctx.node_id,
                    channel=channel,
                    payload=payload,
                    round_sent=ctx.info.round - self.core.transport.delay,
                )
            )
        self.inner.step(_TopLayerContext(ctx, self.core), top_inbox)


def compile_protocol(
    inner_programs: list[NodeProgram],
    states: list[PdsNodeState],
    scheme: SignatureScheme,
    initial_keys: list[LocalKeys],
    *,
    wire: str = "paper",
) -> list[AuthenticatedProgram]:
    """Apply Λ to a whole protocol: one compiled program per node, all on
    the same refresh ``wire`` format."""
    if not (len(inner_programs) == len(states) == len(initial_keys)):
        raise ValueError("one inner program, state and key set per node")
    return [
        AuthenticatedProgram(inner, state, scheme, keys, wire=wire)
        for inner, state, keys in zip(inner_programs, states, initial_keys)
    ]
