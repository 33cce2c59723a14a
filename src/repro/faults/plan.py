"""Seed-deterministic, composable fault schedules, and the one rule book
that decides which faults an ``(s,t)``-limited adversary may run.

The paper's one adversary, mobile and ``(s,t)``-limited, breaks into
nodes and owns the links (§2.2, Defs. 3 and 7).  A plan schedules what it
does: the mobile break-ins (:func:`breakins`) plus the churn, loss,
duplication, delay and state-loss faults met in practice (a crash is a
silent break-in; a flaky link is unreliable per Definition 4).  The
named attacks of ``repro.adversary.strategies`` read the traffic
instead, and ride under a plan as its ``base``.

A :class:`FaultPlan` is a static, declarative schedule of fault
primitives.  It is executed by
:class:`repro.faults.inject.FaultInjectionAdversary`, which composes with
any existing :class:`~repro.sim.adversary_api.Adversary`, and it is
audited by the existing Definition 3/7 accounting in
:mod:`repro.adversary.limits`.

Primitives:

- :class:`CrashFault` — fail-stop outage: the node is broken into and the
  intruder does nothing.  Recorded as broken for ``[first_round,
  last_round]``; the program is silent one extra round (the runner's
  leave semantics) and recovers connectivity at the next refreshment
  phase (Def. 5.3).
- :class:`MemoryCorruptionFault` — a one-round break-in that mutates the
  node's RAM (by default its PDS share, the state the refresh protocol's
  commitment-sync + share-recovery machinery exists to repair).
- :class:`DropFault` / :class:`DuplicateFault` / :class:`DelayFault` —
  link-level loss, duplication and bounded delay (UL model only; all
  three make the link unreliable under Definition 4).  Delayed messages
  that would cross a time-unit boundary are discarded instead (per-unit
  timeout), so stale traffic never pollutes a refreshment phase.
- :class:`ReorderFault` — shuffles a receiver's inbox.  Deliberately
  *invisible* to Definition 4 (same multiset per link): it costs the
  adversary nothing and protocols must be order-independent under it.
- :func:`breakins` — the mobile adversary of Def. 3: victims held
  through each unit's normal phase, their state mutated on entry.
- :func:`burst` — a composition helper: every kind of fault at once
  inside one round window, aimed at one victim set.

The rule book is :class:`StBudgetGuard`: it projects
:class:`FaultRequest`\\ s onto Definition 7's legal space, and every
fault source asks it.  :meth:`FaultPlan.generate` is a seeded sampler
whose draws the guard must admit unchanged; the adaptive strategies of
:mod:`repro.faults.adaptive` route their online requests through it; and
:func:`requests_to_faults` builds the same faults with no budget at all,
for negative controls.

All randomness used while *executing* a plan is derived from
``plan.seed``, never from wall-clock or global state: identical seed and
plan imply an identical transcript.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping

from repro.sim.clock import Schedule

__all__ = [
    "CrashFault",
    "MemoryCorruptionFault",
    "DropFault",
    "DuplicateFault",
    "DelayFault",
    "ReorderFault",
    "FaultPlan",
    "FaultRequest",
    "ProjectionReport",
    "StBudgetGuard",
    "requests_to_faults",
    "breakins",
    "burst",
    "default_corruptor",
    "mix_seed",
]

FAULT_KINDS = ("crash", "corrupt", "drop", "duplicate", "delay", "reorder")
NODE_KINDS = ("crash", "corrupt")
LINK_KINDS = ("drop", "duplicate", "delay")
PHASES = ("normal", "refresh")
MAX_DELAY = 3
MAX_COPIES = 3
#: a plan's (and a projection report's) fault tuples, one per kind
FIELDS = ("crashes", "corruptions", "drops", "duplications", "delays", "reorders")


def mix_seed(*parts: object) -> int:
    """Stable integer from arbitrary labels (runs are reproducible across
    processes, unlike ``hash``)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# -- node-level primitives ---------------------------------------------------


@dataclass(frozen=True)
class CrashFault:
    """Fail-stop outage over the inclusive round interval."""

    node: int
    first_round: int
    last_round: int

    def active(self, round_number: int) -> bool:
        return self.first_round <= round_number <= self.last_round


@dataclass(frozen=True)
class MemoryCorruptionFault:
    """Break in at ``round``, mutate RAM, leave the next round.

    ``mutator(program, rng)`` does the damage; ``None`` selects
    :func:`default_corruptor` (flip the PDS share / scramble a ``secret``
    attribute).  Honest accounting: the node is recorded broken at
    ``round`` — memory corruption *is* a break-in in the paper's model.
    """

    node: int
    round: int
    mutator: Callable[[Any, random.Random], None] | None = None


# -- link-level primitives ---------------------------------------------------


@dataclass(frozen=True)
class DropFault:
    """Drop traffic on one link (both directions), ``None`` = all links."""

    link: frozenset | None
    first_round: int
    last_round: int
    probability: float = 1.0
    channels: frozenset[str] | None = None

    def matches(self, sender: int, receiver: int, channel: str, round_number: int) -> bool:
        if not (self.first_round <= round_number <= self.last_round):
            return False
        if self.channels is not None and channel not in self.channels:
            return False
        return self.link is None or self.link == frozenset((sender, receiver))


@dataclass(frozen=True)
class DuplicateFault:
    """Deliver ``copies`` extra identical copies of matching traffic."""

    link: frozenset | None
    first_round: int
    last_round: int
    copies: int = 1
    probability: float = 1.0
    channels: frozenset[str] | None = None

    matches = DropFault.matches


@dataclass(frozen=True)
class DelayFault:
    """Hold matching traffic ``delay`` extra rounds; discard instead of
    delivering across a time-unit boundary (per-unit timeout)."""

    link: frozenset | None
    first_round: int
    last_round: int
    delay: int = 1
    probability: float = 1.0
    channels: frozenset[str] | None = None

    matches = DropFault.matches


@dataclass(frozen=True)
class ReorderFault:
    """Shuffle the delivery order inside matching inboxes."""

    receiver: int | None  # None = every receiver
    first_round: int
    last_round: int

    def active(self, round_number: int) -> bool:
        return self.first_round <= round_number <= self.last_round


_FIELD_OF = dict(zip(
    (CrashFault, MemoryCorruptionFault, DropFault, DuplicateFault, DelayFault, ReorderFault),
    FIELDS,
))


# -- the plan -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """A static schedule of faults (see module docstring)."""

    seed: int = 0
    crashes: tuple[CrashFault, ...] = ()
    corruptions: tuple[MemoryCorruptionFault, ...] = ()
    drops: tuple[DropFault, ...] = ()
    duplications: tuple[DuplicateFault, ...] = ()
    delays: tuple[DelayFault, ...] = ()
    reorders: tuple[ReorderFault, ...] = ()

    # -- composition ----------------------------------------------------------

    def extended(self, faults: "FaultPlan | ProjectionReport") -> "FaultPlan":
        """This plan with ``faults``' faults appended, kind by kind; the
        seed is kept."""
        return FaultPlan(self.seed, *(getattr(self, name) + getattr(faults, name)
                                      for name in FIELDS))

    def compose(self, other: "FaultPlan") -> "FaultPlan":
        """Union of two schedules; the combined seed is a stable mix."""
        return self.extended(other).with_seed(mix_seed("compose", self.seed, other.seed))

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    # -- introspection --------------------------------------------------------

    def is_empty(self) -> bool:
        return not any(getattr(self, name) for name in FIELDS)

    def fault_count(self) -> int:
        return sum(len(getattr(self, name)) for name in FIELDS)

    def describe(self) -> str:
        parts = []
        for label, name in zip(("crash", "corrupt", "drop", "dup", "delay", "reorder"), FIELDS):
            if getattr(self, name):
                parts.append(f"{label}x{len(getattr(self, name))}")
        body = "+".join(parts) if parts else "empty"
        return f"FaultPlan(seed={self.seed}, {body})"

    # -- validation -----------------------------------------------------------

    def validate(self, *, n: int | None = None, total_rounds: int | None = None) -> "FaultPlan":
        """Reject malformed faults instead of letting them silently never fire.

        Raises :class:`ValueError` on: inverted windows (``last_round <
        first_round``), negative rounds, probabilities outside ``[0, 1]``,
        non-positive ``copies``/``delay``, malformed links, and — when the
        optional context is given — node ids outside ``[0, n)`` or windows
        starting at/after ``total_rounds`` (the run horizon).  Returns
        ``self`` so call sites can chain.  Called from
        :meth:`FaultInjectionAdversary.begin <repro.faults.inject.FaultInjectionAdversary>`
        at injection time, so a bad plan fails the run up front rather
        than producing a quietly fault-free execution.
        """
        def bad(fault: object, reason: str) -> ValueError:
            return ValueError(f"invalid {type(fault).__name__}: {reason} ({fault!r})")

        def check_window(fault: object, first: int, last: int) -> None:
            if last < first:
                raise bad(fault, f"last_round {last} < first_round {first}")
            if first < 0:
                raise bad(fault, f"negative first_round {first}")
            if total_rounds is not None and first >= total_rounds:
                raise bad(fault, f"window starts at {first}, beyond the "
                                 f"{total_rounds}-round horizon")

        def check_node(fault: object, node: int) -> None:
            if n is not None and not (0 <= node < n):
                raise bad(fault, f"node {node} outside [0, {n})")

        def check_link(fault: object) -> None:
            if fault.link is not None:
                if len(fault.link) != 2:
                    raise bad(fault, "link must join two distinct nodes")
                for endpoint in fault.link:
                    check_node(fault, endpoint)
            if not (0.0 <= fault.probability <= 1.0):
                raise bad(fault, f"probability {fault.probability} outside [0, 1]")

        for fault in self.crashes:
            check_window(fault, fault.first_round, fault.last_round)
            check_node(fault, fault.node)
        for fault in self.corruptions:
            check_window(fault, fault.round, fault.round)
            check_node(fault, fault.node)
        for fault in self.drops:
            check_window(fault, fault.first_round, fault.last_round)
            check_link(fault)
        for fault in self.duplications:
            check_window(fault, fault.first_round, fault.last_round)
            check_link(fault)
            if fault.copies < 1:
                raise bad(fault, f"copies must be >= 1, got {fault.copies}")
        for fault in self.delays:
            check_window(fault, fault.first_round, fault.last_round)
            check_link(fault)
            if fault.delay < 1:
                raise bad(fault, f"delay must be >= 1, got {fault.delay}")
        for fault in self.reorders:
            check_window(fault, fault.first_round, fault.last_round)
            if fault.receiver is not None:
                check_node(fault, fault.receiver)
        return self

    # -- generation -----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        n: int,
        t: int,
        schedule: Schedule,
        units: int,
        *,
        s: int | None = None,
    ) -> "FaultPlan":
        """A random ``(s,t)``-limited fault schedule, drawn through the guard.

        For each unit from 1 on, the sampler picks between 1 and ``t``
        victims and aims one fault kind at each: a crash or a corruption,
        or (when ``s >= 2``) drops, duplications or delays on links to
        peers that are not victims and carry fewer than ``s - 1`` faulted
        links so far.  Every round it draws lies in the window
        :meth:`StBudgetGuard.window` allows, and every delay within
        :meth:`StBudgetGuard.max_delay`.  Half the units also reorder
        every inbox over the whole normal phase.

        Each unit's draws go through one fresh :class:`StBudgetGuard` as
        :class:`FaultRequest`\\ s, and :class:`RuntimeError` is raised if
        the guard denied or clamped any of them: the plan is
        ``(s,t)``-limited because the rule book admits it, which
        :func:`repro.adversary.limits.audit_st_limited` then confirms.
        """
        s = t if s is None else s
        if t < 1:
            # a (s,0)-limited adversary may fault nothing: the empty plan
            return cls(seed=mix_seed("fault-plan", seed, n, t, s, units, 1))
        # 1 (the first unit faulted) and the kinds are part of every
        # plan's seed: dropping them would change every plan
        rng = random.Random(mix_seed("fault-plan", seed, n, t, s, units, 1, FAULT_KINDS))
        guard = StBudgetGuard(n, t, schedule, s=s)
        kinds = NODE_KINDS + LINK_KINDS if s >= 2 else NODE_KINDS
        plan = cls(seed=seed)
        for unit in range(1, units):
            window = guard.window(unit, "crash")
            if window is None:
                continue  # not enough room for safe margins
            lo, start_hi, hi = window
            victims = sorted(rng.sample(range(n), rng.randint(1, t)))
            load = dict.fromkeys(range(n), 0)  # faulted links per non-victim
            requests: list[FaultRequest] = []
            for victim in victims:
                kind = rng.choice(kinds)
                if kind == "corrupt":
                    requests.append(FaultRequest(kind, victim, first_round=rng.randint(lo, hi)))
                    continue
                peers: list[int | None] = [None]
                if kind != "crash":
                    # fewer than s faulted links keeps even the victim
                    # operational some of the time; more disconnects it —
                    # both stay within the <= t-victims budget
                    peers = [j for j in range(n) if j not in victims and load[j] < s - 1]
                    rng.shuffle(peers)
                    peers = peers[: rng.randint(1, max(1, s - 1))]
                for peer in peers:
                    if peer is not None:
                        load[peer] += 1
                    first = rng.randint(lo, start_hi)
                    last = rng.randint(first, hi)
                    copies = rng.randint(1, 2) if kind == "duplicate" else 1
                    delay = rng.randint(1, guard.max_delay(unit, last)) if kind == "delay" else 1
                    requests.append(FaultRequest(kind, victim, peer, first, last,
                                                 copies=copies, delay=delay))
            if rng.random() < 0.5:
                requests.append(FaultRequest("reorder", None))
            report = guard.project(unit, requests)
            if report.denied or report.clamped:
                raise RuntimeError(f"the budget guard refused drawn faults: {report.as_dict()}")
            plan = plan.extended(report)
        return plan


# -- the rule book ------------------------------------------------------------


@dataclass(frozen=True)
class FaultRequest:
    """One fault a fault source would like to inject.

    ``first_round``/``last_round`` may be ``None`` — the guard then picks
    the widest legal window for the requested ``phase``.  ``peer`` is
    required for link kinds and ignored otherwise.  A reorder's
    ``victim`` is the receiver whose inbox it shuffles, ``None`` for
    every receiver.
    """

    kind: str                               # one of FAULT_KINDS
    victim: int | None
    peer: int | None = None
    first_round: int | None = None
    last_round: int | None = None
    phase: str = "normal"                   # one of PHASES
    probability: float = 1.0
    channels: frozenset[str] | None = None
    copies: int = 1
    delay: int = 1


@dataclass
class ProjectionReport:
    """What survived projecting one unit's requests onto the legal space."""

    unit: int
    requested: int = 0
    clamped: int = 0
    denied: dict[str, int] = field(default_factory=dict)
    victims: frozenset[int] = frozenset()
    crashes: tuple[CrashFault, ...] = ()
    corruptions: tuple[MemoryCorruptionFault, ...] = ()
    drops: tuple[DropFault, ...] = ()
    duplications: tuple[DuplicateFault, ...] = ()
    delays: tuple[DelayFault, ...] = ()
    reorders: tuple[ReorderFault, ...] = ()

    def add(self, fault: object) -> None:
        name = _FIELD_OF[type(fault)]
        setattr(self, name, getattr(self, name) + (fault,))

    def deny(self, reason: str) -> None:
        self.denied[reason] = self.denied.get(reason, 0) + 1

    @property
    def approved(self) -> int:
        return sum(len(getattr(self, name)) for name in FIELDS)

    @property
    def denied_total(self) -> int:
        return sum(self.denied.values())

    def as_dict(self) -> dict:
        """JSON-ready summary (goes into the adversary output)."""
        return {
            "unit": self.unit,
            "requested": self.requested,
            "approved": self.approved,
            "denied": dict(sorted(self.denied.items())),
            "clamped": self.clamped,
            "victims": sorted(self.victims),
        }


def phase_span(schedule: Schedule, unit: int, phase: str = "normal") -> tuple[int, int] | None:
    """First and last round of ``unit``'s ``phase`` (``"refresh"``, or
    anything else for the normal phase); ``None`` for unit 0's
    refreshment phase, which does not exist."""
    if phase != "refresh":
        first = schedule.first_normal_round(unit)
        return first, first + schedule.normal_rounds - 1
    if unit < 1:
        return None
    first = schedule.refresh_start(unit)
    return first, first + schedule.refresh_rounds - 1


def _build(request: FaultRequest, first: int, last: int,
           probability: float, copies: int, delay: int) -> object:
    """The fault ``request`` names over ``[first, last]`` (a corruption
    strikes at ``first``): the one builder behind the guard and its twin."""
    kind, victim = request.kind, request.victim
    if kind == "crash":
        return CrashFault(victim, first, last)
    if kind == "corrupt":
        return MemoryCorruptionFault(victim, first)
    if kind == "reorder":
        return ReorderFault(victim, first, last)
    link = frozenset((victim, request.peer))
    if kind == "drop":
        return DropFault(link, first, last, probability, request.channels)
    if kind == "duplicate":
        return DuplicateFault(link, first, last, copies, probability, request.channels)
    return DelayFault(link, first, last, delay, probability, request.channels)


class StBudgetGuard:
    """Online Definition 7 budget accounting: the legal fault space.

    :meth:`project` clamps each request's windows and parameters into
    the legal space, admits victims only while the unit's budget has
    room, and denies everything else, so no fault source, however
    aggressive, can exceed Definition 7.  The post-hoc
    :func:`repro.adversary.limits.audit_st_limited` stays the source of
    truth; the guard's job is to make it pass by construction.  The
    rules:

    - **victim budget** — at most ``t`` distinct victims are charged per
      time unit; every node- or link-fault target counts, whether or not
      its faults end up impairing it (charging is conservative).
    - **recovery margin** — a normal-phase fault starts by ``last_normal
      - 2`` and ends by ``last_normal - 1`` (:meth:`window`), so every
      victim steps through the following refreshment phase from its
      first round and recovers (Def. 5.3).
    - **collateral bound** — a non-victim never accumulates ``s`` faulted
      links in one unit (at most ``s - 1``), so only charged victims can
      become s-disconnected; link faults are refused entirely when
      ``s < 2``.
    - **delay cap** — a delay lasts at most ``min(3, last_normal -
      last_round)`` rounds (:meth:`max_delay`), so every delayed envelope
      is released by its unit's last normal round; the injector's
      per-unit expiry never has to drop admitted traffic.
    - **refreshment-phase carry-over** — link faults *may* target a
      unit's refreshment phase (that is how the certificate-starver
      attacks CERTIFY/NEWKEY traffic), but a refresh victim misses that
      phase's recovery and stays impaired through the *next* unit's
      refreshment phase.  Refresh victims are therefore charged against
      both units: ``|victims(u-1) ∪ refresh_victims(u)| <= min(t, s)`` —
      the ``s`` bound keeps ``n - s`` clean helpers available so every
      recovering node actually re-enters at the phase's end.  Node
      faults during a refreshment phase are always denied.
    - **reorder** — charges nobody (Definition 4 sees the same multiset
      per link) and defaults to the whole phase.

    Projection is **order-sensitive and first-come-first-served**:
    requests are processed in the order given, so fault sources put
    their highest-priority faults first.  Everything the guard does is
    recorded in a :class:`ProjectionReport` (per-reason denial counts,
    clamp count, charged victims).  One guard instance accompanies one
    run; units must be projected in non-decreasing order.
    """

    def __init__(self, n: int, t: int, schedule: Schedule, *, s: int | None = None) -> None:
        if t < 0:
            raise ValueError("t must be >= 0")
        self.n = n
        self.t = t
        self.s = t if s is None else s
        self.schedule = schedule
        self._victims: dict[int, set[int]] = {}
        self._refresh_victims: dict[int, set[int]] = {}
        self._peer_load: dict[int, dict[int, int]] = {}
        self._last_unit: int | None = None

    # -- the legal windows -----------------------------------------------------

    def window(self, unit: int, kind: str, phase: str = "normal") -> tuple[int, int, int] | None:
        """Where a ``kind`` fault in ``unit``'s ``phase`` may lie, as
        ``(lo, start_hi, hi)``: it starts in ``[lo, start_hi]`` and ends by
        ``hi`` (a corruption strikes in ``[lo, hi]``).  ``None`` when the
        phase has no room for one."""
        span = phase_span(self.schedule, unit, phase)
        if span is None:
            return None
        first, last = span
        if kind == "reorder" or phase == "refresh":
            return first, last, last
        if last - first < 3:
            return None
        # the victim is silent one round past its fault and must be back
        # for the next refreshment phase's first round (Def. 5.3)
        return first, last - 2, last - 1

    def max_delay(self, unit: int, last_round: int) -> int:
        """The longest delay for traffic sent by ``last_round``: released
        by ``unit``'s last normal round, and never more than 3 rounds."""
        return min(MAX_DELAY, phase_span(self.schedule, unit)[1] - last_round)

    # -- projection ------------------------------------------------------------

    def project(self, unit: int, requests: Iterable[FaultRequest]) -> ProjectionReport:
        """Project one unit's requests onto the legal fault space."""
        if self._last_unit is not None and unit < self._last_unit:
            raise ValueError(f"units must be projected in order "
                             f"(got {unit} after {self._last_unit})")
        self._last_unit = unit
        report = ProjectionReport(unit=unit)
        victims = self._victims.setdefault(unit, set())
        refresh_victims = self._refresh_victims.setdefault(unit, set())
        prev = frozenset(self._victims.get(unit - 1, ()))
        load = self._peer_load.setdefault(unit, {})
        nodes = range(self.n)

        def admit(victim: int, *, refresh: bool) -> bool:
            """Charge ``victim`` against the unit's budget (both budgets
            for refresh-phase victims); False when no room is left."""
            if len(victims | {victim}) > self.t:
                return False
            if refresh and len(prev | refresh_victims | {victim}) > min(self.t, self.s):
                return False
            victims.add(victim)
            if refresh:
                refresh_victims.add(victim)
            return True

        def clamp(value, lo, hi, default):
            if value is None:
                return default
            clamped = max(lo, min(hi, value))
            if clamped != value:
                report.clamped += 1
            return clamped

        for request in requests:
            report.requested += 1
            kind, victim = request.kind, request.victim
            refresh = request.phase == "refresh"
            if kind not in FAULT_KINDS:
                report.deny("unknown-kind")
                continue
            if request.phase not in PHASES:
                report.deny("unknown-phase")
                continue
            if victim not in nodes and not (kind == "reorder" and victim is None):
                report.deny("victim-out-of-range")
                continue
            window = self.window(unit, kind, request.phase)
            if kind == "reorder":
                if window is None:
                    report.deny("no-refresh-phase")
                    continue
            elif self.t < 1:
                report.deny("victim-budget")
                continue
            elif kind in NODE_KINDS:
                if refresh:
                    report.deny("refresh-node-fault")
                    continue
                if window is None:
                    report.deny("unit-too-short")  # no room for safe margins
                    continue
                if not admit(victim, refresh=False):
                    report.deny("victim-budget")
                    continue
            else:
                peer = request.peer
                if self.s < 2:
                    report.deny("s-too-small")  # one bad link would already disconnect
                    continue
                if peer not in nodes or peer == victim:
                    report.deny("bad-peer")
                    continue
                if window is None:
                    report.deny("no-refresh-phase" if refresh else "unit-too-short")
                    continue
                if refresh and peer in prev:
                    # a recovering node's phase links must stay clean or it
                    # would miss its own re-admission (Def. 5.3)
                    report.deny("peer-recovering")
                    continue
                peer_is_victim = peer in victims
                if not peer_is_victim and load.get(peer, 0) >= self.s - 1:
                    report.deny("collateral-budget")
                    continue
                if not admit(victim, refresh=refresh):
                    report.deny("victim-budget")
                    continue
                if not peer_is_victim:
                    load[peer] = load.get(peer, 0) + 1

            lo, start_hi, hi = window
            if kind == "corrupt":
                first = last = clamp(request.first_round, lo, hi, lo)
            else:
                first = clamp(request.first_round, lo, start_hi, lo)
                last = clamp(request.last_round, first, hi, hi)
            probability, copies, delay = request.probability, request.copies, request.delay
            if kind in LINK_KINDS:
                probability = clamp(probability, 0.0, 1.0, 1.0)
            if kind == "duplicate":
                copies = clamp(copies, 1, MAX_COPIES, 1)
            if kind == "delay":
                delay = clamp(delay, 1, self.max_delay(unit, last), 1)
            report.add(_build(request, first, last, probability, copies, delay))

        report.victims = frozenset(victims)
        return report


def requests_to_faults(
    unit: int, requests: Iterable[FaultRequest], schedule: Schedule
) -> ProjectionReport:
    """Convert requests to faults **without any budget enforcement**.

    The unguarded twin of :meth:`StBudgetGuard.project`: windows default
    to the requested phase's full span (:func:`phase_span`; the normal
    phase in unit 0) but explicit rounds and parameters pass through
    unclamped, and every well-formed request is approved.  This is how
    the campaign layer's negative controls (and the failure-frontier
    search below the guard) express "run the raw strategy and let the
    monitor judge it".
    """
    report = ProjectionReport(unit=unit)
    victims: set[int] = set()
    for request in requests:
        report.requested += 1
        if request.kind not in FAULT_KINDS:
            report.deny("unknown-kind")
            continue
        if request.phase not in PHASES:
            report.deny("unknown-phase")
            continue
        if request.kind in LINK_KINDS and request.peer is None:
            report.deny("bad-peer")
            continue
        lo, hi = phase_span(schedule, unit, request.phase) or phase_span(schedule, unit)
        first = lo if request.first_round is None else request.first_round
        last = hi if request.last_round is None else request.last_round
        report.add(_build(request, first, last,
                          request.probability, request.copies, request.delay))
        if request.kind != "reorder":
            victims.add(request.victim)
    report.victims = frozenset(victims)
    return report


def breakins(
    schedule: Schedule,
    victims: Mapping[int, Iterable[int]],
    mutator: Callable[[Any, random.Random], None] | None = None,
) -> FaultPlan:
    """The mobile adversary's break-ins (§1, Def. 3) as a plan.

    Each node in ``victims[u]`` is held from unit ``u``'s first normal
    round until one round before the next refreshment phase, which it
    then steps through in full (Def. 5.3).  A ``mutator`` also runs on
    each victim as it is broken into (crashes run before corruptions),
    drawing from the plan's stream; one that copies state out is a
    snapshot.
    """
    crashes: list[CrashFault] = []
    corruptions: list[MemoryCorruptionFault] = []
    for unit, nodes in victims.items():
        first = schedule.first_normal_round(unit)
        for node in sorted(nodes):
            crashes.append(CrashFault(node, first, first + schedule.normal_rounds - 2))
            if mutator is not None:
                corruptions.append(MemoryCorruptionFault(node, first, mutator))
    return FaultPlan(crashes=tuple(crashes), corruptions=tuple(corruptions))


def burst(
    seed: int,
    victims: Iterable[int],
    peers: Iterable[int],
    first_round: int,
    last_round: int,
    *,
    delay: int = 1,
    copies: int = 1,
) -> FaultPlan:
    """A fault burst: crash + drop + duplicate + delay aimed at ``victims``
    inside one window.  Deliberately *not* limit-respecting — bursts are
    for stress tests and for exercising the monitor's fail-fast path."""
    victims = sorted(set(victims))
    peers = sorted(set(peers))
    drops, dups, dels = [], [], []
    for i, victim in enumerate(victims):
        for j, peer in enumerate(peers):
            if peer == victim:
                continue
            link = frozenset((victim, peer))
            bucket = (i + j) % 3
            if bucket == 0:
                drops.append(DropFault(link=link, first_round=first_round, last_round=last_round))
            elif bucket == 1:
                dups.append(DuplicateFault(
                    link=link, first_round=first_round, last_round=last_round, copies=copies))
            else:
                dels.append(DelayFault(
                    link=link, first_round=first_round, last_round=last_round, delay=delay))
    return FaultPlan(
        seed=seed,
        crashes=tuple(
            CrashFault(node=v, first_round=first_round, last_round=last_round)
            for v in victims[: max(1, len(victims) // 2)]
        ),
        drops=tuple(drops),
        duplications=tuple(dups),
        delays=tuple(dels),
        reorders=(ReorderFault(receiver=None, first_round=first_round, last_round=last_round),),
    )


def default_corruptor(program: Any, rng: random.Random) -> None:
    """Generic RAM damage: flip the PDS share if the program holds one
    (the state the refresh protocol repairs), otherwise scramble a
    ``secret`` attribute if present."""
    state = getattr(program, "state", None)
    share = getattr(state, "share", None)
    if share is not None and hasattr(share, "value"):
        from repro.crypto.shamir import Share

        state.share = Share(x=share.x, value=share.value + rng.randint(1, 1 << 16))
        return
    if hasattr(program, "secret"):
        program.secret = f"corrupted-{rng.randint(0, 1 << 30)}"
