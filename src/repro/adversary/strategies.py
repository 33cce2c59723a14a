"""The paper's named attacks: what a static schedule cannot say.

Scheduled break-ins and link faults are :mod:`repro.faults` plans (the
mobile adversary of Def. 3 is :func:`repro.faults.plan.breakins`).  The
attacks here read the round's traffic or forge from stolen state:

- :class:`CutOffAdversary` — the §1.1 impersonation attack: isolate a
  recently-broken node and impersonate it to the rest of the network with
  its stolen keys.
- :class:`InjectionFloodAdversary` — the §5.1 "almost (t,t)-limited"
  adversary: obeys all break-in/link limits but injects arbitrarily many
  bogus messages (used against URfr's clear-text key exchange).
- :class:`ReplayAdversary` — re-delivers previously recorded messages
  (excluded by Def. 4's "another message" clause; VER-CERT's ``(u, w)``
  binding must reject them).

Each runs alone or as a plan's base, ``FaultInjectionAdversary(plan,
base=attack)``, which delivers first.  The cut-off does its own cut:
plan drops on the victim's links would also drop its forgeries.

All strategies are deterministic given the run seed (they draw randomness
only from the rng the runner hands them).
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.sim.adversary_api import Adversary, AdversaryApi, faithful_delivery
from repro.sim.clock import Phase, RoundInfo
from repro.sim.messages import Envelope

__all__ = [
    "CutOffAdversary",
    "InjectionFloodAdversary",
    "ReplayAdversary",
]


class CutOffAdversary(Adversary):
    """The §1.1 impersonation attack.

    During time unit ``break_unit`` the adversary breaks into the victim
    and steals its state.  From the next unit on it (1) cuts the victim
    off from every other node — no traffic crosses the victim's links in
    either direction — and (2) impersonates the victim using the stolen
    state: a scheme-specific ``impersonator`` callback fabricates the
    envelopes to inject each round (e.g. re-signing with stolen keys).

    Against the naive strawman of §1.3 this succeeds silently; against
    ULS/Λ the victim cannot obtain a certificate while cut off, so it
    alerts (Prop. 31), and the forged certificates fail VER-CERT.
    """

    def __init__(
        self,
        victim: int,
        break_unit: int,
        impersonator: Callable[[Any, AdversaryApi, RoundInfo], list[Envelope]] | None = None,
        cutoff_units: int | None = None,
    ) -> None:
        self.victim = victim
        self.break_unit = break_unit
        self.impersonator = impersonator
        self.cutoff_units = cutoff_units  # None = forever
        self.stolen_program: Any = None
        self._inside = False

    def _cutting_off(self, info: RoundInfo) -> bool:
        if info.time_unit <= self.break_unit:
            return False
        if self.cutoff_units is None:
            return True
        return info.time_unit <= self.break_unit + self.cutoff_units

    def on_round(self, api: AdversaryApi, info: RoundInfo, traffic) -> None:
        if info.time_unit == self.break_unit and info.phase is Phase.NORMAL:
            if not self._inside:
                self.stolen_program = api.break_into(self.victim)
                self._inside = True
        elif self._inside:
            api.leave(self.victim)
            self._inside = False

    def deliver(self, api, info, traffic):
        if not self._cutting_off(info):
            return faithful_delivery(traffic, api.n)
        plan: dict[int, list[Envelope]] = {i: [] for i in range(api.n)}
        for envelope in traffic:
            if self.victim in (envelope.sender, envelope.receiver):
                continue  # the victim is cut off in both directions
            plan[envelope.receiver].append(envelope)
        if self.impersonator is not None and self.stolen_program is not None:
            for forged in self.impersonator(self.stolen_program, api, info):
                if forged.receiver != self.victim:
                    plan[forged.receiver].append(forged)
        return plan


class InjectionFloodAdversary(Adversary):
    """§5.1: an "almost (t,t)-limited" adversary.

    Never breaks a node and never touches genuine traffic, but injects
    ``flood_factor`` bogus messages per (receiver, source) pair during
    chosen rounds — by default the first round of every refreshment phase,
    which is when URfr Part (I) sends fresh public keys in the clear and
    is therefore the only window where injection hurts (see the
    "Stronger adversaries" remark at the end of §4.3.3).

    ``payload_factory(claimed_sender, receiver, rng)`` fabricates the
    bogus payloads (e.g. fake public keys).
    """

    def __init__(
        self,
        payload_factory: Callable[[int, int, random.Random], Any],
        channel: str,
        flood_factor: int = 1,
        rounds: Callable[[RoundInfo], bool] | None = None,
    ) -> None:
        self.payload_factory = payload_factory
        self.channel = channel
        self.flood_factor = flood_factor
        self.rounds = rounds or (
            lambda info: info.phase is Phase.REFRESH and info.is_phase_start
        )
        self.injected_count = 0

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        if not self.rounds(info):
            return plan
        for receiver in range(api.n):
            injected: list[Envelope] = []
            for claimed in range(api.n):
                if claimed == receiver:
                    continue
                for _ in range(self.flood_factor):
                    payload = self.payload_factory(claimed, receiver, api.rng)
                    injected.append(
                        api.forge_envelope(claimed, receiver, self.channel, payload)
                    )
                    self.injected_count += 1
            # the adversary controls delivery order: the forgeries arrive
            # *before* the genuine announcements, so "first value received"
            # (URfr Part I step 3) picks the fake one
            plan[receiver] = injected + plan[receiver]
        return plan


class ReplayAdversary(Adversary):
    """Records all traffic and re-delivers it ``delay`` rounds later.

    Definition 4 counts a replayed message as "another message", making
    the link unreliable; protocol-level protection comes from the
    ``(u, w)`` stamps in VER-CERT.
    """

    def __init__(self, delay: int = 2, channels: set[str] | None = None) -> None:
        self.delay = delay
        self.channels = channels
        self._recorded: dict[int, list[Envelope]] = {}
        self.replayed_count = 0

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        for envelope in traffic:
            if self.channels is None or envelope.channel in self.channels:
                self._recorded.setdefault(info.round + self.delay, []).append(envelope)
        for envelope in self._recorded.pop(info.round, []):
            plan[envelope.receiver].append(envelope)
            self.replayed_count += 1
        return plan
