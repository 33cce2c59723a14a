"""The synchronous execution engine for the AL and UL models (§2.1–2.2).

One :class:`Runner` drives ``n`` node programs, an adversary and a
schedule through a sequence of communication rounds and produces an
:class:`~repro.sim.transcript.Execution`.

Round anatomy (messages sent at round ``w`` arrive at round ``w+1``):

1. every non-broken node's program runs on the inbox delivered this round
   and queues its outgoing messages (broken nodes' programs do not run —
   the adversary speaks for them);
2. outside the set-up phase the adversary observes all queued traffic
   (*rushing*), may break into / leave nodes, and may queue messages in
   the name of broken nodes;
3. delivery is resolved: faithfully in the AL model; by the adversary's
   delivery plan in the UL model (modify / delete / duplicate / inject);
4. link reliability is derived by diffing sent vs. delivered traffic
   (Definition 4), the s-operational set is advanced (Definition 5), and
   system-log lines ("compromised"/"recovered") are appended when a
   node's status changes.

The set-up phase is adversary-free (the paper's assumption); all ROMs are
frozen when it ends.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator, TypeVar

from repro.sim.adversary_api import Adversary, AdversaryApi, FaithfulPlan
from repro.adversary.connectivity import ConnectivityTracker
from repro.sim.clock import Phase, RoundInfo, Schedule
from repro.sim.messages import Envelope
from repro.sim.node import Node, NodeContext, NodeProgram
from repro.sim.randomness import RandomnessSource
from repro.sim.transcript import (
    COMPROMISED,
    RECOVERED,
    CompactRoundRecord,
    Execution,
    RoundRecord,
)

__all__ = ["Runner", "ALRunner", "ULRunner", "RunObserver", "replay"]


class RunObserver:
    """Hook interface for watching an execution round by round: the one
    way analysis reads a run.

    Live, observers see each round's full :class:`RoundRecord`, envelopes
    included, the moment the round is recorded — *during* the run, not
    after it — which is what lets a monitor fail-fast on the exact round
    an invariant breaks instead of burning the remaining units (see
    :class:`repro.analysis.monitor.RuntimeInvariantMonitor`).  The same
    observer replays a finished execution through :func:`replay`, so a
    post-hoc check is the live one fed from the transcript.  A replay
    sees what ``execution.records`` kept: a compact run
    (``compact_records=True``) kept no traffic, so an observer that reads
    ``record.sent`` or ``record.delivered`` must be attached live to it.
    Observers must treat the execution as read-only; they are analysis,
    not protocol.
    """

    #: per node, how many of its outputs :meth:`new_outputs` has yielded
    _outputs_seen: list[int] | None = None

    def on_round(self, execution: Execution, record: RoundRecord) -> None:
        """Called once per round, after ``execution.records`` has it."""

    def on_run_end(self, execution: Execution) -> None:
        """Called once after the last round (adversary output included)."""

    def new_outputs(
        self, execution: Execution, record: RoundRecord
    ) -> Iterator[tuple[int, int, Any]]:
        """Yield ``(node, round, entry)`` for each node output stamped up
        to ``record``'s round that this observer has not seen yet.

        Live, that is exactly the round's own outputs (they are stamped
        the round they are made, before its record is appended); in a
        replay the stamps keep the outputs in step with the records.
        """
        seen = self._outputs_seen
        if seen is None:
            seen = self._outputs_seen = [0] * execution.n
        last = record.info.round
        for node, outputs in enumerate(execution.node_outputs):
            while seen[node] < len(outputs) and outputs[seen[node]][0] <= last:
                event_round, entry = outputs[seen[node]]
                seen[node] += 1
                yield node, event_round, entry


_Observer = TypeVar("_Observer", bound=RunObserver)


def replay(execution: Execution, *observers: _Observer) -> _Observer:
    """Feed a finished execution through ``observers`` exactly as
    :meth:`Runner.run` does live; returns the first observer."""
    for record in execution.records:
        for observer in observers:
            observer.on_round(execution, record)
    for observer in observers:
        observer.on_run_end(execution)
    return observers[0]


class Runner:
    """Shared machinery; use :class:`ALRunner` or :class:`ULRunner`."""

    model = "abstract"

    def __init__(
        self,
        programs: list[NodeProgram],
        adversary: Adversary,
        schedule: Schedule,
        seed: int | str = 0,
        *,
        observers: list[RunObserver] | None = None,
        compact_records: bool = False,
    ) -> None:
        self.n = len(programs)
        if self.n < 2:
            raise ValueError("need at least two nodes")
        self.observers: list[RunObserver] = list(observers or [])
        self.schedule = schedule
        self.seed = seed
        self.randomness = RandomnessSource(seed)
        self.adversary = adversary
        self.nodes = [Node(i, program, self.n) for i, program in enumerate(programs)]
        self._scheduled_inputs: dict[tuple[int, int], list[Any]] = {}
        self.execution = Execution(
            n=self.n, schedule=schedule, seed=seed, model=self.model,
            node_outputs=[[] for _ in range(self.n)],
        )
        self._prev_status: list[bool] = [True] * self.n  # True = "good" last round
        #: ``execution.records`` keeps counts, not envelopes
        #: (:class:`CompactRoundRecord`); observers still see full records
        self.compact_records = compact_records

    # -- driver-facing API -----------------------------------------------------

    def add_external_input(self, node_id: int, round_number: int, value: Any) -> None:
        """Schedule the paper's ``x_{i,w}``: an input handed to node
        ``node_id`` at the start of round ``round_number``."""
        self._scheduled_inputs.setdefault((node_id, round_number), []).append(value)

    def run(self, units: int) -> Execution:
        """Simulate time units ``0 .. units-1`` and return the execution."""
        total = self.schedule.total_rounds(units)
        self.adversary.begin(self.n, self.schedule, self.randomness.adversary())
        for round_number in range(total):
            self._run_round(self.schedule.info(round_number))
        self.execution.adversary_output.extend(self.adversary.finish())
        for observer in self.observers:
            observer.on_run_end(self.execution)
        return self.execution

    # -- internals ---------------------------------------------------------------

    def _run_round(self, info: RoundInfo) -> None:
        randomness = self.randomness
        round_number = info.round

        # 1. honest computation
        traffic: list[Envelope] = []
        for node in self.nodes:
            inbox = node.pending_inbox
            node.pending_inbox = []
            if node.broken:
                continue  # broken nodes have empty output; adversary acts for them
            node_id = node.node_id
            ctx = NodeContext(
                node_id=node_id,
                n=self.n,
                info=info,
                # derived on first use only: most programs never draw
                rng=lambda _i=node_id, _r=round_number: randomness.node_round(_i, _r),
                rom=node.rom,
                external_inputs=list(self._scheduled_inputs.get((node_id, round_number), ())),
                inbox=inbox,
            )
            node.program.step(ctx, inbox)
            traffic.extend(ctx.outbox)
            if ctx.outputs:
                self.execution.node_outputs[node_id].extend(
                    [(round_number, entry) for entry in ctx.outputs]
                )

        # 2-3. adversary interaction + delivery
        if info.phase is Phase.SETUP:
            sent = tuple(traffic)
            plan: dict[int, list[Envelope]] = FaithfulPlan.build(sent, self.n)
            broken = frozenset()
            if info.is_phase_end:
                for node in self.nodes:
                    node.rom.freeze()
        else:
            api = AdversaryApi(
                self.nodes, info, lambda _r=round_number: randomness.stream("api", _r)
            )
            observed = tuple(traffic)  # rushing: the pre-injection view
            self.adversary.on_round(api, info, observed)
            self.execution.adversary_output.extend(api.output_entries)
            broken = frozenset(i for i, node in enumerate(self.nodes) if node.broken)
            sent = observed + tuple(api.injected) if api.injected else observed
            plan = self._resolve_delivery(api, info, sent)

        # a FaithfulPlan built from exactly this round's sent traffic is
        # faithful by construction: receiver keys are complete, every
        # envelope sits in its receiver's inbox, nothing was added or
        # dropped — so both the sanitation walk and the Definition 4
        # multiset comparison are already decided
        provenly_faithful = type(plan) is FaithfulPlan and plan.source is sent
        if not provenly_faithful:
            self._sanitize_plan(plan)
        for node in self.nodes:
            node.pending_inbox = plan.get(node.node_id, [])

        # 4. accounting
        unreliable = self._unreliable_links(
            sent, plan, broken, provenly_faithful=provenly_faithful
        )
        operational = self._operational_set(info, broken, unreliable)
        self._log_status_changes(info, broken, operational)

        # share the plan's own lists (and, for a complete faithful plan,
        # the dict itself) instead of re-materializing tuples; holders
        # must treat records as read-only — which was always the contract
        # for transcripts
        if type(plan) is FaithfulPlan:
            delivered: Any = plan
        else:
            delivered = {i: plan.get(i, ()) for i in range(self.n)}
        record = RoundRecord(
            info=info,
            sent=sent,
            delivered=delivered,
            broken=broken,
            operational=operational,
            unreliable_links=unreliable,
        )
        if self.compact_records:
            self.execution.records.append(CompactRoundRecord(
                info=info,
                sent_count=record.sent_count,
                delivered_count=record.delivered_count,
                broken=broken,
                operational=operational,
                unreliable_links=unreliable,
                sent_by_channel=record.sent_by_channel,
            ))
        else:
            self.execution.records.append(record)
        for observer in self.observers:
            observer.on_round(self.execution, record)

    def _sanitize_plan(self, plan: dict[int, list[Envelope]]) -> None:
        for receiver, envelopes in plan.items():
            for envelope in envelopes:
                if envelope.receiver != receiver:
                    raise ValueError(
                        f"delivery plan mismatch: {envelope.describe()} in inbox of {receiver}"
                    )
                if envelope.sender == receiver:
                    raise ValueError("self-links do not exist in the model")

    def _unreliable_links(
        self,
        traffic: tuple[Envelope, ...],
        plan: dict[int, list[Envelope]],
        broken: frozenset[int],
        *,
        provenly_faithful: bool = False,
    ) -> frozenset[frozenset[int]]:
        """Definition 4, per round: a link {i, j} is unreliable if an
        endpoint is broken or traffic on either direction was not delivered
        exactly (as a multiset).

        The comparison is linear in the round's traffic instead of
        quadratic per link, and in the common case touches no payload at
        all: the adversary passes delivered envelopes through *by
        reference*, so each direction's delivered id-multiset usually
        equals its sent id-multiset, which already proves multiset
        equality.  Only directions whose id-counts differ are re-compared
        by content (an injected equal *copy* is still a faithful
        delivery) — Counter-based, with the legacy remove-one-by-one
        comparison for unhashable payloads, so adversaries are free to
        inject arbitrary garbage.  A ``provenly_faithful`` plan skips the
        comparison: only the broken-endpoint links are unreliable.
        """
        links_broken: set[frozenset[int]] = set()
        for i in broken:
            for j in range(self.n):
                if j != i:
                    links_broken.add(frozenset((i, j)))
        if provenly_faithful:
            return frozenset(links_broken)

        # per direction: envelope-object id counts (the traffic tuple and
        # the plan's lists keep every counted envelope alive for the whole
        # comparison, so ids cannot be recycled)
        sent_ids: dict[tuple[int, int], dict[int, int]] = {}
        delivered_ids: dict[tuple[int, int], dict[int, int]] = {}

        for envelope in traffic:
            if envelope.sender in broken or envelope.receiver in broken:
                continue  # the link is already unreliable; skip bookkeeping
            direction = (envelope.sender, envelope.receiver)
            counts = sent_ids.get(direction)
            if counts is None:
                counts = sent_ids[direction] = {}
            ident = id(envelope)
            counts[ident] = counts.get(ident, 0) + 1
        for receiver, envelopes in plan.items():
            for envelope in envelopes:
                if envelope.sender in broken or receiver in broken:
                    continue
                direction = (envelope.sender, receiver)
                counts = delivered_ids.get(direction)
                if counts is None:
                    counts = delivered_ids[direction] = {}
                ident = id(envelope)
                counts[ident] = counts.get(ident, 0) + 1

        unreliable = set(links_broken)
        mismatched: list[tuple[int, int]] = []
        for direction in set(sent_ids) | set(delivered_ids):
            if frozenset(direction) in unreliable:
                continue
            if sent_ids.get(direction) != delivered_ids.get(direction):
                mismatched.append(direction)
        if not mismatched:
            return frozenset(unreliable)

        # only directions whose id-counts differ need the content-level
        # multiset comparison; gather their envelope objects in one
        # targeted second pass instead of materializing per-direction
        # lists for the whole round up front
        wanted = set(mismatched)
        sent_objs: dict[tuple[int, int], list[Envelope]] = {d: [] for d in wanted}
        delivered_objs: dict[tuple[int, int], list[Envelope]] = {d: [] for d in wanted}
        for envelope in traffic:
            direction = (envelope.sender, envelope.receiver)
            if direction in wanted:
                sent_objs[direction].append(envelope)
        for receiver, envelopes in plan.items():
            for envelope in envelopes:
                direction = (envelope.sender, receiver)
                if direction in wanted:
                    delivered_objs[direction].append(envelope)

        for direction in mismatched:
            link = frozenset(direction)
            sent_side = sent_objs[direction]
            delivered_side = delivered_objs[direction]
            try:
                if Counter(sent_side) != Counter(delivered_side):
                    unreliable.add(link)
            except TypeError:
                if not _same_multiset(sent_side, delivered_side):
                    unreliable.add(link)
        return frozenset(unreliable)

    # -- model-specific hooks ------------------------------------------------------

    def _resolve_delivery(
        self, api: AdversaryApi, info: RoundInfo, traffic: tuple[Envelope, ...]
    ) -> dict[int, list[Envelope]]:
        raise NotImplementedError

    def _operational_set(
        self,
        info: RoundInfo,
        broken: frozenset[int],
        unreliable: frozenset[frozenset[int]],
    ) -> frozenset[int]:
        raise NotImplementedError

    def _log_status_changes(
        self, info: RoundInfo, broken: frozenset[int], operational: frozenset[int]
    ) -> None:
        """Append "compromised"/"recovered" lines on status transitions.

        In the AL model the status is simply non-broken (§2.1); in the UL
        model it is s-operational (§2.2) — a node that becomes
        s-disconnected is logged as compromised even though it is not
        broken.
        """
        for node_id in range(self.n):
            good = node_id in operational
            if good != self._prev_status[node_id]:
                event = RECOVERED if good else COMPROMISED
                self.execution.system_log.append((info.round, node_id, event))
                self._prev_status[node_id] = good


def _same_multiset(a: list[Envelope], b: list[Envelope]) -> bool:
    """Legacy quadratic multiset comparison — kept as the fallback for
    directions carrying unhashable payloads (and as the reference the
    Counter path is tested against)."""
    if len(a) != len(b):
        return False
    remaining = list(b)
    for item in a:
        try:
            remaining.remove(item)
        except ValueError:
            return False
    return True


class ALRunner(Runner):
    """Authenticated-links model: delivery is always faithful; the
    adversary's only powers are reading traffic, breaking into nodes and
    speaking for broken ones."""

    model = "AL"

    def _resolve_delivery(
        self, api: AdversaryApi, info: RoundInfo, traffic: tuple[Envelope, ...]
    ) -> dict[int, list[Envelope]]:
        # delivery is faithful *by model definition*, so carry the proof
        return FaithfulPlan.build(traffic, self.n)

    def _operational_set(
        self,
        info: RoundInfo,
        broken: frozenset[int],
        unreliable: frozenset[frozenset[int]],
    ) -> frozenset[int]:
        return frozenset(range(self.n)) - broken


class ULRunner(Runner):
    """Unauthenticated-links model: the adversary owns delivery; node
    status is s-operationality tracked per Definitions 4–6.

    Args:
        s: the disconnection threshold used for operational-node
            accounting (the paper's ``s``; experiments use ``s = t``).
    """

    model = "UL"

    def __init__(
        self,
        programs: list[NodeProgram],
        adversary: Adversary,
        schedule: Schedule,
        s: int,
        seed: int | str = 0,
        *,
        observers: list[RunObserver] | None = None,
        compact_records: bool = False,
    ) -> None:
        super().__init__(programs, adversary, schedule, seed,
                         observers=observers, compact_records=compact_records)
        self.s = s
        self.tracker = ConnectivityTracker(self.n, s)

    def _resolve_delivery(
        self, api: AdversaryApi, info: RoundInfo, traffic: tuple[Envelope, ...]
    ) -> dict[int, list[Envelope]]:
        return self.adversary.deliver(api, info, traffic)

    def _operational_set(
        self,
        info: RoundInfo,
        broken: frozenset[int],
        unreliable: frozenset[frozenset[int]],
    ) -> frozenset[int]:
        return self.tracker.observe_round(info, broken, unreliable)
