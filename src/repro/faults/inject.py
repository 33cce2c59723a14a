"""Execute a :class:`~repro.faults.plan.FaultPlan` as an adversary.

:class:`FaultInjectionAdversary` is an ordinary
:class:`~repro.sim.adversary_api.Adversary`, so fault schedules ride the
exact same rails as attacks: crashes and memory corruptions are break-ins
(visible to the ``(s,t)`` accounting of :mod:`repro.adversary.limits`),
link faults are delivery-plan edits (visible to the Definition 4 multiset
diff), and reordering is a delivery-plan edit that Definition 4 provably
cannot see.  It optionally wraps a *base* adversary — the base acts
first each round, the faults are layered on top of whatever it did —
so any existing strategy composes with any plan.

Determinism: the only randomness consumed is a private
``random.Random`` seeded from ``plan.seed``; the runner's own adversary
rng is passed through to the base untouched, so wrapping a strategy in
faults never perturbs the strategy's random choices.
"""

from __future__ import annotations

import random
from typing import Any

from repro.faults.plan import FaultPlan, default_corruptor, mix_seed
from repro.sim.adversary_api import Adversary, AdversaryApi, FaithfulPlan
from repro.sim.clock import RoundInfo, Schedule
from repro.sim.messages import Envelope

__all__ = ["FaultInjectionAdversary"]


class FaultInjectionAdversary(Adversary):
    """Adversary that executes a static :class:`FaultPlan`.

    ``stats`` tallies what actually happened (crashes, corruptions,
    dropped/duplicated/delayed/expired/reordered envelopes) and is also
    emitted as a ``("fault-stats", {...})`` entry in the adversary's
    final output, where the emulation checker ignores it but analyses
    and benchmarks can read it back from the transcript.
    """

    def __init__(self, plan: FaultPlan, base: Adversary | None = None) -> None:
        self.plan = plan
        self.base = base
        self.stats: dict[str, int] = {
            "crashes": 0,
            "corruptions": 0,
            "dropped": 0,
            "duplicated": 0,
            "delayed": 0,
            "expired": 0,
            "reordered": 0,
        }
        self._crashed: set[int] = set()         # nodes *we* hold broken
        self._pending_leave: set[int] = set()   # corruption victims to release
        self._held: dict[int, list[Envelope]] = {}  # release round -> envelopes

    # -- lifecycle -----------------------------------------------------------

    def begin(self, n: int, schedule: Schedule, rng: random.Random) -> None:
        super().begin(n, schedule, rng)
        self.plan.validate(n=n)  # fail the run up front on malformed plans
        if self.base is not None:
            self.base.begin(n, schedule, rng)
        # reset per-run state so the same adversary object replays
        # identically when reused across runs
        self.stats = dict.fromkeys(self.stats, 0)
        self._crashed = set()
        self._pending_leave = set()
        self._held = {}
        self._rng = random.Random(mix_seed("fault-exec", self.plan.seed))
        self._corruptions_by_round: dict[int, list] = {}
        for fault in self.plan.corruptions:
            self._corruptions_by_round.setdefault(fault.round, []).append(fault)

    def finish(self) -> list[Any]:
        entries = list(self.base.finish()) if self.base is not None else []
        entries.append(("fault-stats", dict(self.stats)))
        return entries

    # -- break-ins (crashes + memory corruption) ------------------------------

    def on_round(self, api: AdversaryApi, info: RoundInfo, traffic: tuple[Envelope, ...]) -> None:
        if self.base is not None:
            self.base.on_round(api, info, traffic)

        # release last round's corruption victims: the break is recorded for
        # exactly one round, the program stays silent one more (leave
        # semantics) and then resumes with the damaged state
        for node in sorted(self._pending_leave):
            if api.is_broken(node):
                api.leave(node)
        self._pending_leave.clear()

        # crashes: hold the victim broken over the fault's interval.  A node
        # the base adversary already holds is left to the base (we must not
        # release someone else's break-in).
        wanted = {
            fault.node for fault in self.plan.crashes if fault.active(info.round)
        }
        for node in sorted(wanted - self._crashed):
            if not api.is_broken(node):
                api.break_into(node)
                self._crashed.add(node)
                self.stats["crashes"] += 1
        for node in sorted(self._crashed - wanted):
            if api.is_broken(node):
                api.leave(node)
            self._crashed.discard(node)

        # memory corruption: one-round break-in that damages RAM
        for fault in self._corruptions_by_round.get(info.round, ()):
            mutator = fault.mutator or default_corruptor
            if api.is_broken(fault.node):
                # already compromised (by the base or a crash): mutate in
                # place, ownership of the break-in is unchanged
                mutator(api.program_of(fault.node), self._rng)
            else:
                program = api.break_into(fault.node)
                mutator(program, self._rng)
                self._pending_leave.add(fault.node)
            self.stats["corruptions"] += 1

    # -- delivery (drop / duplicate / delay / reorder; UL model only) ---------

    def deliver(
        self, api: AdversaryApi, info: RoundInfo, traffic: tuple[Envelope, ...]
    ) -> dict[int, list[Envelope]]:
        if self.base is not None:
            plan = self.base.deliver(api, info, traffic)
        else:
            # passed through unmodified below when no fault is active, so
            # carry the faithfulness provenance
            plan = FaithfulPlan.build(traffic, api.n)
        for receiver in range(api.n):
            plan.setdefault(receiver, [])

        round_number = info.round
        # filter the static schedule down to this round's active faults
        # once, instead of re-checking every fault's round window per
        # envelope.  Order is preserved, so "first matching fault wins"
        # and rng consumption are unchanged — an inactive fault never
        # matches and never draws.
        drops = [f for f in self.plan.drops
                 if f.first_round <= round_number <= f.last_round]
        delays = [f for f in self.plan.delays
                  if f.first_round <= round_number <= f.last_round]
        dups = [f for f in self.plan.duplications
                if f.first_round <= round_number <= f.last_round]
        reorders = [f for f in self.plan.reorders if f.active(round_number)]
        if (not drops and not delays and not dups and not reorders
                and round_number not in self._held):
            # nothing can touch this round's traffic and nothing draws
            # randomness: the base plan goes through untouched (keeping
            # its faithfulness marker, if any)
            return plan

        out: dict[int, list[Envelope]] = {receiver: [] for receiver in range(api.n)}
        for receiver in range(api.n):
            for envelope in plan[receiver]:
                fate = self._link_fate(envelope, info, drops, delays, dups)
                if fate == "drop":
                    self.stats["dropped"] += 1
                    continue
                if isinstance(fate, int):  # delay: fate is the release round
                    if self.schedule.info(fate).time_unit != info.time_unit:
                        # per-unit timeout: never leak stale traffic into the
                        # next unit's refreshment phase
                        self.stats["expired"] += 1
                    else:
                        self._held.setdefault(fate, []).append(envelope)
                        self.stats["delayed"] += 1
                    continue
                out[receiver].append(envelope)
                if fate is not None:  # duplicate: fate is the extra-copy count
                    for _ in range(fate[0]):
                        out[receiver].append(envelope)
                        self.stats["duplicated"] += 1

        # traffic delayed in an earlier round comes due now
        for envelope in self._held.pop(info.round, ()):
            out[envelope.receiver].append(envelope)

        for fault in reorders:
            receivers = range(api.n) if fault.receiver is None else (fault.receiver,)
            for receiver in receivers:
                if len(out[receiver]) > 1:
                    self._rng.shuffle(out[receiver])
                    self.stats["reordered"] += 1
        return out

    def _link_fate(self, envelope: Envelope, info: RoundInfo, drops, delays, dups):
        """First matching fault wins: ``"drop"``, release round (int) for a
        delay, ``(copies,)`` for duplication, ``None`` for clean delivery.
        The fault lists are this round's active faults, in plan order.
        """
        sender, receiver, channel = envelope.sender, envelope.receiver, envelope.channel
        for fault in drops:
            if fault.matches(sender, receiver, channel, info.round):
                if fault.probability >= 1.0 or self._rng.random() < fault.probability:
                    return "drop"
        for fault in delays:
            if fault.matches(sender, receiver, channel, info.round):
                if fault.probability >= 1.0 or self._rng.random() < fault.probability:
                    return info.round + fault.delay
        for fault in dups:
            if fault.matches(sender, receiver, channel, info.round):
                if fault.probability >= 1.0 or self._rng.random() < fault.probability:
                    return (fault.copies,)
        return None
