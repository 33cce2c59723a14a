"""Per-unit session keys: the paper's lightweight authentication variant.

Footnote 1 of §5: "Alternative constructions may ... even exchange a
secret key between each two parties and authenticate π-messages using
that key.  Such construction does not guarantee *delivery* of messages,
thus they are not authenticators according to our definition; yet they
provide authentication according to the standard interpretation."

This module implements that variant on top of ULS's certified per-unit
keys, using the fact that the Schnorr verification keys are Diffie–
Hellman-capable group elements:

- right after each refreshment phase's key switch, every node AUTH-SENDs
  a ``sess-hello``; receivers harvest the sender's *certified* per-unit
  verification key from the certified wrapper (any other accepted
  certified traffic feeds the table too);
- the pairwise session key is derived non-interactively from static DH:
  ``k_ij = H(g^{x_i·x_j}, u, {i,j})`` — both sides compute it from their
  own signing key and the peer's certified key, so its authenticity is
  inherited from the certificates;
- application messages then travel *directly* on the link, authenticated
  by an HMAC over ``(i, j, u, w, body)`` — one envelope and two hashes
  per message instead of DISPERSE's Θ(n) envelopes and two signature
  operations (experiment E12 quantifies the trade).

Only usable when the centralized scheme is Schnorr (the keys must be
group elements); the constructor enforces this.
"""

from __future__ import annotations

from typing import Any

from repro.core.uls import UlsCore, _O_SWITCH
from repro.crypto.hashing import prf, tagged_hash
from repro.crypto.schnorr import SchnorrScheme, SchnorrVerifyKey
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext
from repro.wire import SESSION, well_formed

__all__ = ["SessionLayer", "SESSION_CHANNEL"]

SESSION_CHANNEL = "session"
_KEY_TAG = "repro/session/key"


class SessionLayer:
    """Pairwise MAC sessions over a :class:`~repro.core.uls.UlsCore`.

    Owner contract per round: call :meth:`on_round` *after*
    ``core.on_round`` and before ``core.end_round``; then :meth:`send`
    freely; read :meth:`accepted`.
    """

    def __init__(self, core: UlsCore) -> None:
        if not isinstance(core.keystore.scheme, SchnorrScheme):
            raise TypeError("session keys require the Schnorr scheme (DH-capable keys)")
        self.core = core
        self.group = core.keystore.scheme.group
        #: unit -> peer -> certified verification key (the DH share)
        self.peer_keys: dict[int, dict[int, int]] = {}
        self._session_keys: dict[tuple[int, int], bytes] = {}  # (unit, peer)
        self._accepted: list[tuple[int, Any]] = []
        self.rejected_count = 0
        self.sent_count = 0

    # -- key management ---------------------------------------------------

    def _harvest_peer_keys(self) -> None:
        for accepted in self.core.transport.accepted_view():
            raw = accepted.raw
            verify_key = raw.verify_key
            if isinstance(verify_key, SchnorrVerifyKey):
                self.peer_keys.setdefault(raw.unit, {})[raw.source] = verify_key.y

    def session_key(self, peer: int) -> bytes | None:
        """The current unit's pairwise MAC key with ``peer`` (or None)."""
        unit = self.core.keystore.unit
        cache_key = (unit, peer)
        if cache_key in self._session_keys:
            return self._session_keys[cache_key]
        peer_y = self.peer_keys.get(unit, {}).get(peer)
        keys = self.core.keystore.current
        if peer_y is None or not keys.usable:
            return None
        my_x = keys.keypair.signing_key.x
        shared = self.group.power(peer_y, my_x)
        low, high = sorted((self.core.node_id, peer))
        derived = tagged_hash(
            _KEY_TAG,
            shared.to_bytes((shared.bit_length() + 7) // 8 + 1, "big"),
            unit.to_bytes(8, "big"),
            low.to_bytes(4, "big"),
            high.to_bytes(4, "big"),
        )
        self._session_keys[cache_key] = derived
        return derived

    # -- per-round engine -----------------------------------------------------

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self._accepted = []
        self._harvest_peer_keys()

        # announce our fresh certified key right after each key switch
        # (and once at the start of unit 0)
        info = ctx.info
        announce = (
            (info.phase is Phase.REFRESH and info.index_in_phase == _O_SWITCH)
            or (info.time_unit == 0 and info.phase is Phase.NORMAL
                and info.index_in_phase == 0)
        )
        if announce and self.core.keystore.can_sign():
            self.core.transport.send_to_all(ctx, ("sess-hello", self.core.keystore.unit))

        for envelope in ctx.channel_view(inbox, SESSION_CHANNEL):
            self._receive(ctx, envelope)

    def _receive(self, ctx: NodeContext, envelope: Envelope) -> None:
        payload = envelope.payload
        if not well_formed(payload, SESSION):
            return
        _, unit, round_w, body, tag = payload
        if unit != self.core.keystore.unit or round_w != ctx.info.round - 1:
            self.rejected_count += 1
            return
        key = self.session_key(envelope.sender)
        if key is None:
            self.rejected_count += 1
            return
        try:
            expected = prf(key, (envelope.sender, ctx.node_id, unit, round_w, body))
        except TypeError:  # a body prf cannot encode: no MAC can match it
            self.rejected_count += 1
            return
        if tag != expected:
            self.rejected_count += 1
            return
        self._accepted.append((envelope.sender, body))

    # -- sending ---------------------------------------------------------------

    def send(self, ctx: NodeContext, receiver: int, body: Any) -> bool:
        """MAC-authenticated direct send; returns False when no session
        key exists yet (the caller may fall back to
        ``core.app_send`` — the full AUTH-SEND path)."""
        key = self.session_key(receiver)
        if key is None:
            return False
        unit = self.core.keystore.unit
        tag = prf(key, (ctx.node_id, receiver, unit, ctx.info.round, body))
        ctx.send(receiver, SESSION_CHANNEL, ("mac", unit, ctx.info.round, body, tag))
        self.sent_count += 1
        return True

    def accepted(self) -> list[tuple[int, Any]]:
        """MAC-verified messages received this round: ``(source, body)``."""
        return list(self._accepted)
