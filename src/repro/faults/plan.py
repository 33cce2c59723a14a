"""Seed-deterministic, composable fault schedules.

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
:mod:`repro.adversary.limits` — a plan built by :meth:`FaultPlan.generate`
stays ``(s,t)``-limited by construction, so every security statement of
the paper must keep holding under it (the chaos experiments assert
exactly that).

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
    "breakins",
    "burst",
    "mix_seed",
]


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


def _norm_link(link: tuple[int, int] | frozenset | None) -> frozenset | None:
    return None if link is None else frozenset(link)


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

    def compose(self, other: "FaultPlan") -> "FaultPlan":
        """Union of two schedules; the combined seed is a stable mix."""
        return FaultPlan(
            seed=mix_seed("compose", self.seed, other.seed),
            crashes=self.crashes + other.crashes,
            corruptions=self.corruptions + other.corruptions,
            drops=self.drops + other.drops,
            duplications=self.duplications + other.duplications,
            delays=self.delays + other.delays,
            reorders=self.reorders + other.reorders,
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    # -- introspection --------------------------------------------------------

    def is_empty(self) -> bool:
        return not (self.crashes or self.corruptions or self.drops
                    or self.duplications or self.delays or self.reorders)

    def fault_count(self) -> int:
        return (len(self.crashes) + len(self.corruptions) + len(self.drops)
                + len(self.duplications) + len(self.delays) + len(self.reorders))

    def victims(self) -> frozenset[int]:
        """Nodes directly targeted by node-level faults."""
        nodes = {c.node for c in self.crashes}
        nodes |= {c.node for c in self.corruptions}
        return frozenset(nodes)

    def describe(self) -> str:
        parts = []
        for label, faults in (
            ("crash", self.crashes), ("corrupt", self.corruptions),
            ("drop", self.drops), ("dup", self.duplications),
            ("delay", self.delays), ("reorder", self.reorders),
        ):
            if faults:
                parts.append(f"{label}x{len(faults)}")
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
        start_unit: int = 1,
        kinds: Iterable[str] = ("crash", "corrupt", "drop", "duplicate", "delay", "reorder"),
        max_victims_per_unit: int | None = None,
    ) -> "FaultPlan":
        """A random fault schedule that is ``(s,t)``-limited by construction.

        Per time unit the generator picks at most ``min(t,
        max_victims_per_unit)`` victims and aims every node- and
        link-level fault at them, confined to the unit's *normal* rounds
        with enough margin that each victim steps through the following
        refreshment phase from its first round — the standard proactive
        recovery contract (Def. 5.3, as in :func:`breakins`).  Non-victim
        collateral is bounded: a non-victim never sees more than ``s - 1``
        faulted links in one unit, so it can neither lose ``n - s``
        reliable peers nor accumulate ``s`` unreliable ones — only the
        ≤ t victims can be impaired, which is exactly Definition 7's
        budget under the instantaneous reading audited by
        :func:`repro.adversary.limits.audit_st_limited`.
        """
        s = t if s is None else s
        if t < 1:
            # a (s,0)-limited adversary may fault nothing: the empty plan
            return cls(seed=mix_seed("fault-plan", seed, n, t, s, units, start_unit))
        kinds = tuple(kinds)
        rng = random.Random(mix_seed("fault-plan", seed, n, t, s, units, start_unit, kinds))
        crashes: list[CrashFault] = []
        corruptions: list[MemoryCorruptionFault] = []
        drops: list[DropFault] = []
        duplications: list[DuplicateFault] = []
        delays: list[DelayFault] = []
        reorders: list[ReorderFault] = []

        link_kinds = [k for k in kinds if k in ("drop", "duplicate", "delay") and s >= 2]
        node_kinds = [k for k in kinds if k in ("crash", "corrupt")]

        for unit in range(start_unit, units):
            first_normal = schedule.first_normal_round(unit)
            last_normal = first_normal + schedule.normal_rounds - 1
            if last_normal - first_normal < 3:
                continue  # not enough room for safe margins
            budget = min(t, max_victims_per_unit or t)
            victims = sorted(rng.sample(range(n), rng.randint(1, budget)))
            # collateral budget: faulted links incident to each non-victim
            peer_load = {j: 0 for j in range(n)}
            for victim in victims:
                choices = node_kinds + link_kinds
                kind = rng.choice(choices) if choices else None
                if kind == "crash":
                    # last+2 <= refresh start, so the program resumes by the
                    # first refreshment round (see CrashFault docstring)
                    first = rng.randint(first_normal, last_normal - 2)
                    last = rng.randint(first, last_normal - 1)
                    crashes.append(CrashFault(node=victim, first_round=first, last_round=last))
                elif kind == "corrupt":
                    # break round r, silent r+1, resume r+2 <= refresh start
                    round_number = rng.randint(first_normal, last_normal - 1)
                    corruptions.append(
                        MemoryCorruptionFault(node=victim, round=round_number)
                    )
                elif kind in ("drop", "duplicate", "delay"):
                    peers = [
                        j for j in range(n)
                        if j != victim and j not in victims and peer_load[j] < s - 1
                    ]
                    rng.shuffle(peers)
                    # fewer than s faulted links keeps even the victim
                    # operational some of the time; more disconnects it —
                    # both stay within the <= t-victims budget
                    for peer in peers[: rng.randint(1, max(1, s - 1))]:
                        peer_load[peer] += 1
                        first = rng.randint(first_normal, last_normal - 2)
                        last = rng.randint(first, last_normal - 1)
                        link = frozenset((victim, peer))
                        if kind == "drop":
                            drops.append(DropFault(link=link, first_round=first, last_round=last))
                        elif kind == "duplicate":
                            duplications.append(DuplicateFault(
                                link=link, first_round=first, last_round=last,
                                copies=rng.randint(1, 2),
                            ))
                        else:
                            max_delay = max(1, min(3, last_normal - last))
                            delays.append(DelayFault(
                                link=link, first_round=first, last_round=last,
                                delay=rng.randint(1, max_delay),
                            ))
            if "reorder" in kinds and rng.random() < 0.5:
                reorders.append(ReorderFault(
                    receiver=None, first_round=first_normal, last_round=last_normal,
                ))

        return cls(
            seed=seed,
            crashes=tuple(crashes),
            corruptions=tuple(corruptions),
            drops=tuple(drops),
            duplications=tuple(duplications),
            delays=tuple(delays),
            reorders=tuple(reorders),
        )


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


__all__.append("default_corruptor")
