"""The §1.3 strawman: "sign the new key with the old key" — and its attack.

The paper motivates PDS certificates by first knocking down the natural
approach: let each node simply announce its fresh per-unit key signed with
the previous unit's key, chaining trust unit to unit.  This module
implements that strawman faithfully so the E5 experiment can demonstrate
the attack the paper describes:

    "consider a node N that is just recovering from a break-in.  N's old
    signing key is compromised.  Thus, the adversary can successfully
    impersonate N by forging N's signature and sending a fake new
    verification key in the name of N.  Furthermore, N will not be aware
    of this impersonation."

:class:`NaiveProgram` is the scheme; :class:`NaiveImpersonator` is the
attack payload for :class:`~repro.adversary.strategies.CutOffAdversary`:
with one stolen key it hijacks the victim's entire future key chain,
silently and forever.  Run the same adversary against ULS/Λ and it gets
one stale unit at most, plus an alert (see ``benchmarks/bench_e5``).
"""

from __future__ import annotations

import random
from typing import Any

from repro import wire
from repro.crypto.hashing import encode_for_hash
from repro.crypto.signature import SignatureScheme
from repro.sim.adversary_api import AdversaryApi
from repro.sim.clock import Phase, RoundInfo
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram

__all__ = ["NaiveProgram", "NaiveImpersonator", "NAIVE_APP", "NAIVE_REKEY"]

NAIVE_APP = "naive-app"
NAIVE_REKEY = "naive-rekey"
_KEY_CHANNEL = "naive-key"


def _rekey_bytes(scheme: SignatureScheme, node: int, unit: int, new_key: Any) -> bytes:
    return encode_for_hash(("naive-rekey", node, unit, scheme.key_repr(new_key)))


def _message_bytes(node: int, dst: int, unit: int, round_w: int, message: Any) -> bytes:
    return encode_for_hash(("naive-msg", node, dst, unit, round_w, message))


class NaiveProgram(NodeProgram):
    """Chained per-unit keys without distributed certificates.

    External inputs ``("send", dst, m)`` send authenticated application
    messages; outputs mirror the Λ convention (``app-sent``/``app-recv``)
    so :mod:`repro.core.views` analyses both schemes identically.
    """

    def __init__(self, scheme: SignatureScheme) -> None:
        super().__init__()
        self.scheme = scheme
        self.keypair = None
        self.unit = 0
        self.peer_keys: dict[int, Any] = {}  # ordinary RAM: corruptible
        self._rekeyed: dict[int, set[int]] = {}  # unit -> peers already re-keyed

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        # set-up key announcements (and, in the first normal round, those
        # still in flight from the final set-up round)
        for envelope in inbox:
            payload = envelope.payload
            if envelope.channel == _KEY_CHANNEL and wire.well_formed(payload, wire.NAIVE_KEY):
                self.peer_keys.setdefault(envelope.sender, payload[1])
        if ctx.info.phase is Phase.SETUP:
            if self.keypair is None:
                self.keypair = self.scheme.generate(ctx.rng)
                ctx.broadcast(_KEY_CHANNEL, ("key", self.keypair.verify_key))
            return

        if ctx.info.phase is Phase.REFRESH and ctx.info.is_phase_start:
            self._rekey(ctx)

        self._process_rekeys(ctx, inbox)
        self._process_app(ctx, inbox)

        for value in ctx.external_inputs:
            if isinstance(value, tuple) and len(value) == 3 and value[0] == "send":
                self._app_send(ctx, value[1], value[2])

    # -- key chaining ----------------------------------------------------------

    def _rekey(self, ctx: NodeContext) -> None:
        new_pair = self.scheme.generate(ctx.rng)
        unit = ctx.info.time_unit
        signature = self.scheme.sign(
            self.keypair.signing_key,
            _rekey_bytes(self.scheme, self.node_id, unit, new_pair.verify_key),
        )
        ctx.broadcast(NAIVE_REKEY, ("rekey", unit, new_pair.verify_key, signature))
        self.keypair = new_pair
        self.unit = unit

    def _process_rekeys(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for envelope in inbox:
            if envelope.channel != NAIVE_REKEY:
                continue
            payload = envelope.payload
            if not wire.well_formed(payload, wire.NAIVE_REKEY):
                continue
            _, unit, new_key, signature = payload
            sender = envelope.sender
            try:
                if sender in self._rekeyed.get(unit, ()):
                    continue  # first valid rekey per unit wins
            except TypeError:  # unhashable: not a unit any node rekeys in
                continue
            old_key = self.peer_keys.get(sender)
            if old_key is None:
                continue
            try:
                body = _rekey_bytes(self.scheme, sender, unit, new_key)
            except TypeError:
                continue
            if self.scheme.verify(old_key, body, signature):
                self.peer_keys[sender] = new_key
                self._rekeyed.setdefault(unit, set()).add(sender)

    # -- application traffic -----------------------------------------------------

    def _app_send(self, ctx: NodeContext, receiver: int, message: Any) -> None:
        unit = ctx.info.time_unit
        signature = self.scheme.sign(
            self.keypair.signing_key,
            _message_bytes(self.node_id, receiver, unit, ctx.info.round, message),
        )
        ctx.send(receiver, NAIVE_APP, ("msg", unit, ctx.info.round, message, signature))
        ctx.output(("app-sent", receiver, NAIVE_APP, message))

    def _process_app(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for envelope in inbox:
            if envelope.channel != NAIVE_APP:
                continue
            payload = envelope.payload
            if not wire.well_formed(payload, wire.NAIVE_APP):
                continue
            _, unit, round_w, message, signature = payload
            if round_w != ctx.info.round - 1:
                continue  # stale or replayed
            key = self.peer_keys.get(envelope.sender)
            if key is None:
                continue
            try:
                body = _message_bytes(envelope.sender, ctx.node_id, unit, round_w, message)
            except TypeError:
                continue
            if self.scheme.verify(key, body, signature):
                ctx.output(("app-recv", envelope.sender, NAIVE_APP, message))


class NaiveImpersonator:
    """The attack: hijack the victim's key chain with one stolen key.

    Plug into :class:`~repro.adversary.strategies.CutOffAdversary` as the
    ``impersonator`` callback.  At each refreshment phase it issues a
    rekey for the victim signed with the key *it* controls (initially the
    stolen one), and during normal rounds it sends ``("imp", unit)``
    application messages in the victim's name to every node.
    """

    def __init__(self, scheme: SignatureScheme, victim: int, rng_seed: int = 0) -> None:
        self.scheme = scheme
        self.victim = victim
        self.rng = random.Random(rng_seed)
        self.chain_key = None  # the signing keypair we currently control
        self.injected: list[tuple[int, Any]] = []

    def __call__(self, stolen_program: Any, api: AdversaryApi, info: RoundInfo) -> list[Envelope]:
        if self.chain_key is None:
            self.chain_key = stolen_program.keypair  # stolen at break-in time
        forged: list[Envelope] = []
        if info.phase is Phase.REFRESH and info.is_phase_start:
            new_pair = self.scheme.generate(self.rng)
            unit = info.time_unit
            signature = self.scheme.sign(
                self.chain_key.signing_key,
                _rekey_bytes(self.scheme, self.victim, unit, new_pair.verify_key),
            )
            payload = ("rekey", unit, new_pair.verify_key, signature)
            for receiver in range(api.n):
                if receiver != self.victim:
                    forged.append(api.forge_envelope(self.victim, receiver, NAIVE_REKEY, payload))
            self.chain_key = new_pair
        elif info.phase is Phase.NORMAL:
            message = ("imp", info.time_unit)
            for receiver in range(api.n):
                if receiver == self.victim:
                    continue
                signature = self.scheme.sign(
                    self.chain_key.signing_key,
                    _message_bytes(self.victim, receiver, info.time_unit, info.round, message),
                )
                payload = ("msg", info.time_unit, info.round, message, signature)
                forged.append(api.forge_envelope(self.victim, receiver, NAIVE_APP, payload))
            self.injected.append((info.round, message))
        return forged
