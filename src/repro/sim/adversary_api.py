"""Adversary interface and capabilities (§2.1–2.2).

An :class:`Adversary` interacts with the runner through an
:class:`AdversaryApi`, which exposes exactly the paper's capabilities and
nothing more:

- read all traffic (both models);
- break into nodes, obtaining (and possibly mutating) their full mutable
  state, and leave them (both models; *mobility*);
- send messages in the name of *broken* nodes (both models);
- in the UL model only, decide what every node receives — modify, delete,
  duplicate and inject messages — by overriding :meth:`Adversary.deliver`.

*Rushing* is built into the runner's call order: honest messages for the
round are computed first, then :meth:`Adversary.on_round` observes them
and may break new nodes and inject, and only then is delivery resolved.

ROM is readable but never writable (enforced by
:class:`repro.sim.rom.Rom` itself), and programs (code) are not
replaceable — the API hands out the program object for state access but
the runner keeps its own reference.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.clock import RoundInfo, Schedule
from repro.sim.messages import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.node import Node, NodeProgram
    from repro.sim.rom import Rom

__all__ = [
    "Adversary",
    "AdversaryApi",
    "FaithfulPlan",
    "PassiveAdversary",
    "faithful_delivery",
]


class FaithfulPlan(dict):
    """A delivery plan carrying provenance: built by :meth:`build` as the
    faithful regrouping of exactly ``source``, and unmodified since.

    The runner's accounting treats a ``FaithfulPlan`` whose ``source`` is
    the round's sent traffic as proven faithful (Definition 4 holds per
    construction) and skips the per-direction multiset comparison
    (:meth:`repro.sim.runner.Runner._unreliable_links`) and the plan
    sanitation — one of the simulation-floor optimizations.

    Contract: holders must treat the plan and its lists as **read-only**.
    Code that wants to edit a faithful plan must build its own ``dict``
    (as every shipped adversary does — :func:`faithful_delivery` keeps
    returning a plain dict precisely so editing call sites never receive
    a marked plan).  Key-level mutation through Python drops the marker
    as a safety net; ``dict.setdefault`` of empty inboxes is harmless and
    keeps it.
    """

    __slots__ = ("source",)

    @classmethod
    def build(cls, traffic: tuple[Envelope, ...], n: int) -> "FaithfulPlan":
        plan = cls((i, []) for i in range(n))
        for envelope in traffic:
            plan[envelope.receiver].append(envelope)
        plan.source = traffic
        return plan

    # dict-level edits invalidate the provenance (list-level edits are
    # excluded by the read-only contract above)
    def __setitem__(self, key, value):
        self.source = None
        dict.__setitem__(self, key, value)

    def __delitem__(self, key):
        self.source = None
        dict.__delitem__(self, key)

    def __reduce__(self):
        # pickling (parallel benchmark workers) drops the marker: object
        # identity with the traffic tuple cannot survive a process hop
        return (dict, (), None, None, iter(self.items()))


def faithful_delivery(traffic: tuple[Envelope, ...], n: int) -> dict[int, list[Envelope]]:
    """The honest delivery plan: every message arrives unmodified.

    Returns a plain ``dict`` that callers are free to edit (adversary
    strategies start from a faithful plan and drop/duplicate/modify).
    Internal call sites that pass the plan through *unmodified* use
    :meth:`FaithfulPlan.build` instead, so the runner can skip re-proving
    faithfulness.
    """
    plan: dict[int, list[Envelope]] = {i: [] for i in range(n)}
    for envelope in traffic:
        plan[envelope.receiver].append(envelope)
    return plan


class AdversaryApi:
    """Capability object handed to the adversary each round."""

    def __init__(
        self,
        nodes: list["Node"],
        info: RoundInfo,
        rng: random.Random | Callable[[], random.Random],
    ) -> None:
        self._nodes = nodes
        self.info = info
        # ``rng`` may be a zero-arg factory (the runner always passes one):
        # deriving a PRF-seeded Random per round is measurable at the
        # simulation floor, and most adversaries never draw from it.  The
        # stream is identical whenever it is actually used.
        if callable(rng):
            self._rng = None
            self._rng_factory = rng
        else:
            self._rng = rng
            self._rng_factory = None
        self.n = len(nodes)
        self.injected: list[Envelope] = []
        self.break_events: list[tuple[int, str]] = []  # (node, "break"/"leave")
        self.output_entries: list[Any] = []

    @property
    def rng(self) -> random.Random:
        rng = self._rng
        if rng is None:
            rng = self._rng = self._rng_factory()
        return rng

    # -- observation --------------------------------------------------------

    def is_broken(self, node_id: int) -> bool:
        return self._nodes[node_id].broken

    def rom_of(self, node_id: int) -> "Rom":
        """ROM is public and readable by the adversary (writes will raise)."""
        return self._nodes[node_id].rom

    # -- break-ins ----------------------------------------------------------

    def break_into(self, node_id: int) -> "NodeProgram":
        """Compromise a node: returns its program object, whose attributes
        are the node's entire mutable state (read *and* write access)."""
        node = self._nodes[node_id]
        if not node.broken:
            node.broken = True
            self.break_events.append((node_id, "break"))
        return node.program

    def leave(self, node_id: int) -> None:
        """Release a node; its (possibly corrupted) state stays behind and
        its program resumes from the next round."""
        node = self._nodes[node_id]
        if node.broken:
            node.broken = False
            self.break_events.append((node_id, "leave"))

    def program_of(self, node_id: int) -> "NodeProgram":
        """State of an already-broken node (the paper's ongoing access)."""
        node = self._nodes[node_id]
        if not node.broken:
            raise PermissionError(f"node {node_id} is not broken")
        return node.program

    # -- acting -------------------------------------------------------------

    def send_as(self, node_id: int, receiver: int, channel: str, payload: Any) -> None:
        """Place a message on the wire in the name of a *broken* node.

        This is the only way to originate traffic in the AL model; in the
        UL model arbitrary injection is additionally possible through the
        delivery plan.
        """
        if not self._nodes[node_id].broken:
            raise PermissionError(f"cannot send as non-broken node {node_id}")
        if receiver == node_id or not (0 <= receiver < self.n):
            raise ValueError(f"bad receiver {receiver}")
        self.injected.append(
            Envelope(
                sender=node_id,
                receiver=receiver,
                channel=channel,
                payload=payload,
                round_sent=self.info.round,
            )
        )

    def output(self, entry: Any) -> None:
        """Append to the adversary's own output (part of the global output)."""
        self.output_entries.append(entry)

    # -- helpers for deliver() ---------------------------------------------

    def forge_envelope(
        self, claimed_sender: int, receiver: int, channel: str, payload: Any
    ) -> Envelope:
        """Construct an injected envelope with an arbitrary claimed sender
        (UL model only — pass it into the delivery plan)."""
        return Envelope(
            sender=claimed_sender,
            receiver=receiver,
            channel=channel,
            payload=payload,
            round_sent=self.info.round,
        )


class Adversary:
    """Base adversary: passive defaults, hooks for strategies to override."""

    def begin(self, n: int, schedule: Schedule, rng: random.Random) -> None:
        """Called once before the first post-set-up round."""
        self.n = n
        self.schedule = schedule
        self.rng = rng

    def on_round(self, api: AdversaryApi, info: RoundInfo, traffic: tuple[Envelope, ...]) -> None:
        """Observe the round's honest traffic; break/leave/inject here."""

    def deliver(
        self, api: AdversaryApi, info: RoundInfo, traffic: tuple[Envelope, ...]
    ) -> dict[int, list[Envelope]]:
        """UL model only: decide what every node receives next round.

        The default is faithful delivery.  Strategies may drop, modify,
        duplicate and inject arbitrarily; the runner only normalizes
        receiver consistency.

        The default returns a provenance-marked :class:`FaithfulPlan`
        (strategies that *edit* a faithful plan start from
        :func:`faithful_delivery` instead, which returns a plain dict).
        """
        return FaithfulPlan.build(traffic, api.n)

    def finish(self) -> list[Any]:
        """Final adversary output entries (appended to the global output)."""
        return []


class PassiveAdversary(Adversary):
    """Reads everything, touches nothing — the null strategy."""
