"""Impersonation attacks against ULS/Λ.

Two attack flavors, matching the paper's two-sided story:

:class:`UlsImpersonator` — the §1.1 cut-off attack *with stolen keys*:
plugs into :class:`~repro.adversary.strategies.CutOffAdversary` and
fabricates properly CERTIFY'd application messages using everything a
break-in yields (the victim's local keys, certificate and PDS share).
Those forgeries verify only while the stolen certificate's unit is
current; from the next refreshment phase on they bounce off VER-CERT and
the victim alerts.  Outcome: **impersonation prevented + awareness**.

:class:`FreshKeyImpersonationAdversary` — the stronger, break-in-free
attack the paper calls *inevitable* (§2.3: "the emulation property
allows a limited number of nodes to be disconnected ... and consequently
be impersonated"): cut the victim off, announce an adversary-generated
key in its name during the clear-text step of URfr Part (I), let the
honest majority certify it (they cannot tell — the victim is silent),
capture the certificate off the wire, and impersonate with a fully valid
key+certificate.  Against this the protocol guarantees exactly what
Prop. 31 promises and no more: the forgeries ARE accepted by honest
nodes, and the victim — unable to certify its own key — **alerts in every
such unit**.  Detection, not prevention: awareness is the product.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.auth_send import AUTH_TAG
from repro.core.certify import certify
from repro.core.disperse import DISPERSE_CHANNEL, forwarding, unframe
from repro.core.keystore import LocalKeys
from repro.core.uls import CERT_TAG, NEWKEY_CHANNEL
from repro.sim.adversary_api import Adversary, AdversaryApi
from repro.sim.clock import Phase, RoundInfo
from repro.sim.messages import Envelope
from repro.wire import CERT, well_formed

__all__ = ["UlsImpersonator", "FreshKeyImpersonationAdversary"]


class UlsImpersonator:
    """Forge certified app messages with a stolen ULS keystore."""

    def __init__(self, victim: int) -> None:
        self.victim = victim
        self.stolen_keys = None  # LocalKeys captured at break-in
        self.scheme = None
        self.attempts: list[tuple[int, Any]] = []

    def _capture(self, stolen_program: Any) -> None:
        core = getattr(stolen_program, "core", stolen_program)
        keystore = core.keystore
        self.scheme = keystore.scheme
        if self.stolen_keys is None:
            self.stolen_keys = keystore.current

    def __call__(self, stolen_program: Any, api: AdversaryApi, info: RoundInfo) -> list[Envelope]:
        self._capture(stolen_program)
        if info.phase is not Phase.NORMAL or not self.stolen_keys.usable:
            return []
        core = getattr(stolen_program, "core", stolen_program)
        public = core.state.public
        forged: list[Envelope] = []
        message = ("app", ("imp", info.time_unit))
        for receiver in range(api.n):
            if receiver == self.victim:
                continue
            # VER-CERT pins w to two rounds before acceptance; an injected
            # "forwarding" is accepted one round after delivery planning
            msg = certify(
                self.scheme,
                self.stolen_keys,
                message=message,
                source=self.victim,
                destination=receiver,
                round_w=info.round - 1,
            )
            if msg is None:
                continue
            payload = forwarding(AUTH_TAG, self.victim, receiver, tuple(msg))
            forged.append(
                api.forge_envelope(self.victim, receiver, DISPERSE_CHANNEL, payload)
            )
        self.attempts.append((info.round, message))
        return forged


class FreshKeyImpersonationAdversary(Adversary):
    """Break-in-free certified impersonation of a cut-off node.

    From ``from_unit`` on: the victim's links are fully cut; at every
    refreshment phase's announcement round the adversary injects its own
    fresh verification key in the victim's name (delivered to everyone);
    the honest nodes agree on it and certify it; the certificate —
    dispersed toward the unreachable victim — is harvested off the wire;
    and during normal rounds the adversary sends properly certified
    application messages as the victim.

    Stays (t,t)-limited with t >= 1: zero break-ins, one disconnected
    node.  ``scheme`` must be the network's centralized scheme.
    """

    def __init__(self, victim: int, scheme, from_unit: int = 1,
                 app_channel_body=None) -> None:
        self.victim = victim
        self.scheme = scheme
        self.from_unit = from_unit
        self._keypair = None
        self._unit_keys: dict[int, LocalKeys] = {}  # unit -> certified keys
        self.certificates_captured = 0
        self.forgeries_injected = 0
        self._app_body = app_channel_body or (
            lambda info: ("app", ("chat", ("impostor", info.time_unit, info.round)))
        )

    def _active(self, info: RoundInfo) -> bool:
        return info.time_unit >= self.from_unit

    def _my_repr(self, rng: random.Random):
        if self._keypair is None:
            self._keypair = self.scheme.generate(rng)
        return self.scheme.key_repr(self._keypair.verify_key)

    def _capture_certificates(self, info: RoundInfo, traffic) -> None:
        """Harvest cert-deliver payloads addressed to the victim."""
        from repro.core.certify import certificate_assertion
        from repro.pds.threshold_schnorr import pds_message_bytes

        if self._keypair is None:
            return
        expected = pds_message_bytes(
            certificate_assertion(self.victim, info.time_unit,
                                  self.scheme.key_repr(self._keypair.verify_key)),
            info.time_unit,
        )
        for envelope in traffic:
            if envelope.channel != DISPERSE_CHANNEL:
                continue
            frame = unframe(envelope.payload)
            if frame is None or frame[0] != CERT_TAG or frame[2] != self.victim:
                continue
            body = frame[3]
            if well_formed(body, CERT) and body[1] == expected:
                self._unit_keys[info.time_unit] = LocalKeys(
                    unit=info.time_unit, keypair=self._keypair, certificate=body[2]
                )
                self.certificates_captured += 1

    def deliver(self, api: AdversaryApi, info: RoundInfo, traffic):
        from repro.sim.adversary_api import faithful_delivery

        if not self._active(info):
            return faithful_delivery(traffic, api.n)

        self._capture_certificates(info, traffic)

        plan: dict[int, list[Envelope]] = {i: [] for i in range(api.n)}
        for envelope in traffic:
            if self.victim in (envelope.sender, envelope.receiver):
                continue  # the victim is cut off
            plan[envelope.receiver].append(envelope)

        if info.phase is Phase.REFRESH and info.is_phase_start:
            # announce OUR key in the victim's name, consistently to all
            fake = ("newkey", info.time_unit, self._my_repr(api.rng))
            for receiver in range(api.n):
                if receiver != self.victim:
                    plan[receiver].insert(0, api.forge_envelope(
                        self.victim, receiver, NEWKEY_CHANNEL, fake))

        keys = self._unit_keys.get(info.time_unit)
        if keys is not None and info.phase is Phase.NORMAL:
            body = self._app_body(info)
            for receiver in range(api.n):
                if receiver == self.victim:
                    continue
                msg = certify(self.scheme, keys, body, self.victim, receiver,
                              info.round - 1)
                if msg is None:
                    continue
                plan[receiver].append(api.forge_envelope(
                    self.victim, receiver, DISPERSE_CHANNEL,
                    forwarding(AUTH_TAG, self.victim, receiver, tuple(msg))))
                self.forgeries_injected += 1
        return plan
