"""Traffic-reactive adaptive adversaries with online budget enforcement.

A static :class:`~repro.faults.plan.FaultPlan` decides every fault before
the run starts; an *adaptive* adversary decides each time unit's faults
online, from what the execution has actually shown so far — which nodes
just recovered, which links carry the DISPERSE relay load, where the
certificates flow.  This is the strongest shape Definition 7 allows (the
paper's adversary is fully adaptive; only its *budget* is bounded), and
the gap the chaos layer had left open.

Three pieces:

- :class:`ExecutionLens` — a read-only :class:`~repro.sim.runner.RunObserver`
  aggregating per-unit impairment sets and per-link, per-channel traffic
  counts.  It is a separate object (not the adversary itself) because
  ``Adversary.on_round(api, info, traffic)`` and
  ``RunObserver.on_round(execution, record)`` collide; attach
  ``adversary.lens`` to the runner's observers.
- :class:`AdaptiveStrategy` implementations — seeded policies mapping the
  lens' view of unit ``u - 1`` to :class:`~repro.faults.plan.FaultRequest`
  lists for unit ``u``: :class:`RecoveryChaserStrategy` re-breaks nodes
  the unit after they recover, :class:`TrafficTargeterStrategy` drops the
  busiest relay links, :class:`CertificateStarverStrategy` cuts the
  refreshment-phase certificate/key channels so victims miss their own
  recovery.
- :class:`AdaptiveAdversary` — a :class:`~repro.faults.inject.FaultInjectionAdversary`
  that starts from an *empty* plan and grows it one unit at a time: at
  each unit's first round (the refreshment phase start, when the lens has
  all of the previous unit) it asks the strategy for requests, projects
  them through an online :class:`~repro.faults.plan.StBudgetGuard`
  (or, unguarded, converts them verbatim for frontier searches), merges
  the approved faults into its plan, and lets the inherited executor run
  them.

Determinism: the per-unit strategy rng is seeded from
``(seed, strategy, unit)`` only — deliberately *excluding* the
``aggressiveness`` knob — and strategies order a full preference list
before truncating to the knob-scaled count, so raising the knob grows
the requested fault set monotonically.  That is what makes the campaign
layer's frontier bisection (:mod:`repro.faults.campaign`) meaningful.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.faults.inject import FaultInjectionAdversary
from repro.faults.plan import (
    FaultPlan,
    FaultRequest,
    ProjectionReport,
    StBudgetGuard,
    mix_seed,
    requests_to_faults,
)
from repro.sim.adversary_api import AdversaryApi
from repro.sim.clock import RoundInfo, Schedule
from repro.sim.messages import Envelope
from repro.sim.runner import RunObserver
from repro.sim.transcript import Execution, RoundRecord

__all__ = [
    "ExecutionLens",
    "StrategyContext",
    "AdaptiveStrategy",
    "RecoveryChaserStrategy",
    "TrafficTargeterStrategy",
    "CertificateStarverStrategy",
    "STRATEGIES",
    "make_strategy",
    "AdaptiveAdversary",
]


class ExecutionLens(RunObserver):
    """Per-unit aggregates of the transcript, for strategies to read.

    Strictly read-only and strictly *past*: when the adversary plans unit
    ``u`` at ``u``'s first round, the lens has every record of units
    ``< u`` and nothing newer (records are appended after the adversary's
    turn), so strategies can never peek at the round they are attacking.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything (in place, so attached references survive)."""
        self.rounds_seen = 0
        self._impaired: dict[int, set[int]] = {}
        # unit -> (min,max) link -> channel -> envelopes sent
        self._traffic: dict[int, dict[tuple[int, int], dict[str, int]]] = {}

    # -- RunObserver -----------------------------------------------------------

    def on_round(self, execution: Execution, record: RoundRecord) -> None:
        unit = record.info.time_unit
        self.rounds_seen += 1
        impaired = self._impaired.setdefault(unit, set())
        impaired.update(record.broken)
        impaired.update(set(range(execution.n)) - set(record.operational))
        links = self._traffic.setdefault(unit, {})
        for envelope in record.sent:
            a, b = envelope.sender, envelope.receiver
            link = (a, b) if a < b else (b, a)
            per_channel = links.setdefault(link, {})
            per_channel[envelope.channel] = per_channel.get(envelope.channel, 0) + 1

    # -- queries ---------------------------------------------------------------

    def impaired_in_unit(self, unit: int) -> frozenset[int]:
        """Nodes broken or non-operational at some round of ``unit``
        (Definition 7's charged set; these recover, at the earliest, at
        the end of unit ``unit + 1``'s refreshment phase)."""
        return frozenset(self._impaired.get(unit, ()))

    def link_traffic(self, unit: int, channel: str | None = None) -> dict[tuple[int, int], int]:
        """Envelope count per (sorted) link, optionally one channel only."""
        out: dict[tuple[int, int], int] = {}
        for link, per_channel in self._traffic.get(unit, {}).items():
            count = (per_channel.get(channel, 0) if channel is not None
                     else sum(per_channel.values()))
            if count:
                out[link] = count
        return out

    def node_traffic(self, unit: int, channel: str | None = None) -> dict[int, int]:
        """Envelopes sent or received per node — the relay-load ranking."""
        out: dict[int, int] = {}
        for (a, b), count in self.link_traffic(unit, channel).items():
            out[a] = out.get(a, 0) + count
            out[b] = out.get(b, 0) + count
        return out


@dataclass
class StrategyContext:
    """Everything a strategy may look at while planning one unit."""

    unit: int
    n: int
    t: int
    s: int
    schedule: Schedule
    lens: ExecutionLens
    rng: random.Random
    aggressiveness: float


class AdaptiveStrategy:
    """One seeded policy: lens view of unit ``u - 1`` → requests for ``u``.

    Strategies must be *monotone in the knob*: build the full preference
    order first, then truncate to :meth:`want` victims, so a higher
    ``aggressiveness`` only ever adds requests.  The request count scales
    past ``t`` on purpose — the guard clamps it back, and the unguarded
    frontier search needs the overshoot to find the breaking point.
    """

    name = "abstract"

    def plan_unit(self, ctx: StrategyContext) -> list[FaultRequest]:
        raise NotImplementedError

    @staticmethod
    def want(ctx: StrategyContext) -> int:
        """Victims to target this unit: ``ceil(aggressiveness * n)``."""
        return max(1, math.ceil(ctx.aggressiveness * ctx.n))

    @staticmethod
    def _shuffled_rest(ctx: StrategyContext, preferred: list[int]) -> list[int]:
        rest = [node for node in range(ctx.n) if node not in set(preferred)]
        ctx.rng.shuffle(rest)
        return rest


class RecoveryChaserStrategy(AdaptiveStrategy):
    """Re-break nodes the unit after they recover.

    Unit ``u - 1``'s impaired nodes re-enter at the end of unit ``u``'s
    refreshment phase; crashing them through ``u``'s normal rounds takes
    them straight back down, which is the worst case for time-to-recovery
    (the victim never accumulates a full clean unit).
    """

    name = "recovery-chaser"

    def plan_unit(self, ctx: StrategyContext) -> list[FaultRequest]:
        recovering = sorted(ctx.lens.impaired_in_unit(ctx.unit - 1))
        order = recovering + self._shuffled_rest(ctx, recovering)
        return [FaultRequest(kind="crash", victim=victim)
                for victim in order[: self.want(ctx)]]


class TrafficTargeterStrategy(AdaptiveStrategy):
    """Disconnect the busiest relays on the observed DISPERSE traffic.

    Victims are ranked by the previous unit's per-node relay load on
    ``channel`` (all channels as fallback when it carried nothing); each
    victim's ``s`` busiest links are dropped for the unit's normal
    rounds, so the heaviest relay hubs go s-disconnected exactly where
    the flooding depends on them.  Fellow victims are preferred as link
    peers — attacking a victim–victim link costs no collateral budget.
    """

    name = "traffic-targeter"

    def __init__(self, channel: str | None = "disperse") -> None:
        self.channel = channel

    def plan_unit(self, ctx: StrategyContext) -> list[FaultRequest]:
        previous = ctx.unit - 1
        load = ctx.lens.node_traffic(previous, self.channel)
        links = ctx.lens.link_traffic(previous, self.channel)
        if not load:
            load = ctx.lens.node_traffic(previous)
            links = ctx.lens.link_traffic(previous)
        ranked = sorted(range(ctx.n), key=lambda node: (-load.get(node, 0), node))
        victims = ranked[: self.want(ctx)]
        victim_set = set(victims)
        collateral: dict[int, int] = {}
        requests: list[FaultRequest] = []
        for victim in victims:
            def weight(peer: int) -> tuple:
                link = (victim, peer) if victim < peer else (peer, victim)
                # fellow victims first (free), then lightly-loaded peers,
                # busiest link first within a tier
                return (peer not in victim_set, collateral.get(peer, 0),
                        -links.get(link, 0), peer)
            peers = sorted((p for p in range(ctx.n) if p != victim), key=weight)
            for peer in peers[: ctx.s]:
                if peer not in victim_set:
                    collateral[peer] = collateral.get(peer, 0) + 1
                requests.append(FaultRequest(kind="drop", victim=victim, peer=peer))
        return requests


class CertificateStarverStrategy(AdaptiveStrategy):
    """Cut the refreshment-phase CERTIFY/NEWKEY flow so victims miss
    their own recovery.

    Certificates and new-key announcements travel on the ``disperse`` and
    ``newkey`` channels during the refreshment phase; dropping a victim's
    links there makes it miss the phase-end re-admission (Def. 5.3) and
    stay impaired a whole extra unit.  Nodes the previous unit already
    impaired are preferred — re-starving a recovering node is also the
    only admission the refresh budget allows once previous victims exist
    (see :class:`~repro.faults.plan.StBudgetGuard`) — and recovering
    nodes are never used as link *peers*, mirroring the guard's
    ``peer-recovering`` rule.
    """

    name = "certificate-starver"
    channels = frozenset({"disperse", "newkey"})

    def plan_unit(self, ctx: StrategyContext) -> list[FaultRequest]:
        if ctx.unit < 1:
            return []  # unit 0 has no refreshment phase to starve
        previous = sorted(ctx.lens.impaired_in_unit(ctx.unit - 1))
        order = previous + self._shuffled_rest(ctx, previous)
        victims = order[: self.want(ctx)]
        victim_set = set(victims)
        previous_set = set(previous)
        collateral: dict[int, int] = {}
        requests: list[FaultRequest] = []
        for victim in victims:
            def weight(peer: int) -> tuple:
                return (peer not in victim_set, collateral.get(peer, 0), peer)
            peers = sorted(
                (p for p in range(ctx.n) if p != victim and p not in previous_set),
                key=weight,
            )
            for peer in peers[: ctx.s]:
                if peer not in victim_set:
                    collateral[peer] = collateral.get(peer, 0) + 1
                requests.append(FaultRequest(
                    kind="drop", victim=victim, peer=peer,
                    phase="refresh", channels=self.channels,
                ))
        return requests


STRATEGIES: dict[str, type[AdaptiveStrategy]] = {
    RecoveryChaserStrategy.name: RecoveryChaserStrategy,
    TrafficTargeterStrategy.name: TrafficTargeterStrategy,
    CertificateStarverStrategy.name: CertificateStarverStrategy,
}


def make_strategy(name: str, **kwargs) -> AdaptiveStrategy:
    """Instantiate a registered strategy by name (campaign configs are
    JSON, so strategies travel as strings)."""
    try:
        return STRATEGIES[name](**kwargs)
    except KeyError:
        raise ValueError(f"unknown strategy {name!r}; "
                         f"known: {sorted(STRATEGIES)}") from None


class AdaptiveAdversary(FaultInjectionAdversary):
    """Fault-injection adversary whose plan grows online, one unit ahead.

    From unit 1 on, each unit is planned at its first round.  Attach
    :attr:`lens` to the runner's observers — without it the strategies
    see an empty past and degrade to their seeded fallback order (still
    legal, just blind).  Per-unit
    :class:`~repro.faults.plan.ProjectionReport` summaries are published
    into the adversary output as ``("adaptive-plan", {...})`` entries, so
    the budget's decisions are part of the transcript (and of its
    digest).

    Args:
        guarded: project requests through an online
            :class:`~repro.faults.plan.StBudgetGuard` (the default);
            ``False`` converts them verbatim — deliberately illegal
            at high aggressiveness, for frontier searches and negative
            controls.
        aggressiveness: the campaign layer's escalation knob; scales the
            per-unit victim count (see :meth:`AdaptiveStrategy.want`).
    """

    def __init__(
        self,
        strategy: AdaptiveStrategy,
        t: int,
        *,
        s: int | None = None,
        seed: int = 0,
        guarded: bool = True,
        aggressiveness: float = 1.0,
    ) -> None:
        super().__init__(self._empty_plan(seed, strategy))
        self.strategy = strategy
        self.t = t
        self.s = t if s is None else s
        self.seed = seed
        self.guarded = guarded
        self.aggressiveness = aggressiveness
        self.lens = ExecutionLens()
        self.guard: StBudgetGuard | None = None
        self.reports: list[ProjectionReport] = []

    @staticmethod
    def _empty_plan(seed: int, strategy: AdaptiveStrategy) -> FaultPlan:
        return FaultPlan(seed=mix_seed("adaptive", seed, strategy.name))

    # -- lifecycle -------------------------------------------------------------

    def begin(self, n: int, schedule: Schedule, rng: random.Random) -> None:
        # reset the grown state so one adversary object can drive repeated
        # runs (the campaign layer constructs a fresh one anyway)
        self.plan = self._empty_plan(self.seed, self.strategy)
        self.lens.reset()  # in place: the runner's observer list holds it
        self.reports = []
        self.guard = StBudgetGuard(n, self.t, schedule, s=self.s) if self.guarded else None
        super().begin(n, schedule, rng)

    def finish(self) -> list:
        entries = super().finish()
        entries.append(("adaptive-stats", {
            "strategy": self.strategy.name,
            "aggressiveness": self.aggressiveness,
            "guarded": self.guarded,
            "requested": sum(report.requested for report in self.reports),
            "approved": sum(report.approved for report in self.reports),
            "denied": sum(report.denied_total for report in self.reports),
        }))
        return entries

    # -- per-round hook --------------------------------------------------------

    def on_round(self, api: AdversaryApi, info: RoundInfo, traffic: tuple[Envelope, ...]) -> None:
        unit = info.time_unit
        if unit >= 1 and info.round == self.schedule.rounds_of_unit(unit)[0]:
            # the unit's first round: the lens holds all of unit - 1, and
            # faults merged now (refresh window included) fire this round
            self._plan_unit(api, unit)
        super().on_round(api, info, traffic)

    def _plan_unit(self, api: AdversaryApi, unit: int) -> None:
        ctx = StrategyContext(
            unit=unit, n=self.n, t=self.t, s=self.s, schedule=self.schedule,
            lens=self.lens,
            # knob excluded from the seed: choices stay aligned across
            # aggressiveness levels, so escalation only grows the set
            rng=random.Random(mix_seed("adaptive-unit", self.seed,
                                       self.strategy.name, unit)),
            aggressiveness=self.aggressiveness,
        )
        requests = self.strategy.plan_unit(ctx)
        if self.guard is not None:
            report = self.guard.project(unit, requests)
        else:
            report = requests_to_faults(unit, requests, self.schedule)
        self.reports.append(report)
        self.plan = self.plan.extended(report).validate(n=self.n)
        self._index()  # so the merged corruptions fire too
        api.output(("adaptive-plan", report.as_dict()))
