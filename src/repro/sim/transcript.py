"""Execution transcripts and global outputs (§2.1–2.2).

The transcript of an execution records, per round, everything relevant:
the traffic placed on the links, what was actually delivered, which nodes
were broken, which were s-operational, and which links were unreliable.
The *global output* (the object the paper's emulation definitions compare)
is assembled from the node outputs plus the externally-added system-log
lines ("Node i is compromised/recovered").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.sim.clock import RoundInfo, Schedule
from repro.sim.messages import Envelope

__all__ = [
    "RoundRecord",
    "CompactRoundRecord",
    "Execution",
    "COMPROMISED",
    "RECOVERED",
]

COMPROMISED = "compromised"
RECOVERED = "recovered"


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one round.

    Records are read-only in both letter and spirit: ``delivered``
    shares the delivery plan's own lists instead of per-receiver tuples,
    so mutating a record would corrupt the transcript.
    """

    info: RoundInfo
    sent: tuple[Envelope, ...]
    delivered: dict[int, tuple[Envelope, ...]]
    broken: frozenset[int]
    operational: frozenset[int]
    unreliable_links: frozenset[frozenset[int]]

    @property
    def sent_count(self) -> int:
        return len(self.sent)

    @property
    def delivered_count(self) -> int:
        return sum(len(envelopes) for envelopes in self.delivered.values())

    @property
    def sent_by_channel(self) -> dict[str, int]:
        """Envelope counts per channel (computed from ``sent``)."""
        counts: dict[str, int] = {}
        for envelope in self.sent:
            counts[envelope.channel] = counts.get(envelope.channel, 0) + 1
        return counts


@dataclass(frozen=True)
class CompactRoundRecord:
    """A round record that keeps counts instead of envelopes.

    Produced by ``Runner(compact_records=True)`` (benchmark-sweep mode):
    the status fields analyses need (broken / operational /
    unreliable links, and the traffic *volumes*) survive, while the
    envelopes themselves are dropped the moment the round ends.  Runs in
    this mode remain comparable to full-mode runs through the streaming
    :class:`~repro.analysis.digest.RoundsDigest`
    (``Runner(stream_digest=True)``).
    """

    info: RoundInfo
    sent_count: int
    delivered_count: int
    broken: frozenset[int]
    operational: frozenset[int]
    unreliable_links: frozenset[frozenset[int]]
    #: envelope counts per channel — the message-volume benchmarks read
    #: traffic composition without keeping the envelopes themselves
    sent_by_channel: dict[str, int] = field(default_factory=dict)


@dataclass
class Execution:
    """Transcript + outputs of one run (AL-TRANS / UL-TRANS and the
    corresponding global output, in one object)."""

    n: int
    schedule: Schedule
    seed: Any
    model: str  # "AL" or "UL"
    records: list[RoundRecord] = field(default_factory=list)
    node_outputs: list[list[tuple[int, Any]]] = field(default_factory=list)
    adversary_output: list[Any] = field(default_factory=list)
    system_log: list[tuple[int, int, str]] = field(default_factory=list)  # (round, node, event)
    # set by Runner(stream_digest=True): the streaming per-round canonical
    # digest (see repro.analysis.digest.RoundsDigest)
    rounds_digest: str | None = None

    # -- views ---------------------------------------------------------------

    def outputs_of(self, node_id: int) -> list[Any]:
        """Local output entries of one node, in order (round stamps dropped)."""
        return [entry for _, entry in self.node_outputs[node_id]]

    def outputs_of_in_unit(self, node_id: int, unit: int) -> list[Any]:
        """Entries a node output during a specific time unit."""
        rounds = set(self.schedule.rounds_of_unit(unit))
        return [entry for rnd, entry in self.node_outputs[node_id] if rnd in rounds]

    def global_output(self) -> list[tuple[str, ...]]:
        """The paper's global output: per-node outputs and system-log lines
        merged in round order, plus the adversary output.

        Returned as a flat list of tuples
        ``("node", round, i, entry)`` / ``("system", round, i, event)`` /
        ``("adversary", entry)`` — a canonical, comparable form.
        """
        lines: list[tuple] = []
        events: list[tuple[int, int, tuple]] = []
        for node_id, outputs in enumerate(self.node_outputs):
            for rnd, entry in outputs:
                events.append((rnd, node_id, ("node", rnd, node_id, entry)))
        for rnd, node_id, event in self.system_log:
            events.append((rnd, node_id, ("system", rnd, node_id, event)))
        events.sort(key=lambda item: (item[0], item[1]))
        lines.extend(line for _, _, line in events)
        lines.extend(("adversary", entry) for entry in self.adversary_output)
        return lines

    # -- round/unit accessors ------------------------------------------------

    def record_at(self, round_number: int) -> RoundRecord:
        return self.records[round_number]

    def units(self) -> int:
        """Number of time units covered (0-based last unit + 1)."""
        if not self.records:
            return 0
        return self.records[-1].info.time_unit + 1

    def rounds_in_unit(self, unit: int) -> list[RoundRecord]:
        return [rec for rec in self.records if rec.info.time_unit == unit]

    # -- statistics ------------------------------------------------------------

    def messages_sent(self, rounds: Iterable[int] | None = None) -> int:
        """Total envelopes placed on the links (optionally restricted)."""
        if rounds is None:
            return sum(rec.sent_count for rec in self.records)
        wanted = set(rounds)
        return sum(rec.sent_count for rec in self.records if rec.info.round in wanted)

    def broken_in_unit(self, unit: int) -> frozenset[int]:
        """Union of broken sets over a unit's rounds."""
        nodes: set[int] = set()
        for rec in self.rounds_in_unit(unit):
            nodes |= rec.broken
        return frozenset(nodes)

    def impaired_in_unit(self, unit: int) -> frozenset[int]:
        """Nodes broken *or* non-operational at some round of the unit
        (the quantity bounded by Definition 7)."""
        nodes: set[int] = set()
        for rec in self.rounds_in_unit(unit):
            nodes |= rec.broken
            nodes |= frozenset(range(self.n)) - rec.operational
        return frozenset(nodes)

    def alerts_in_unit(self, node_id: int, unit: int) -> int:
        from repro.sim.node import ALERT

        return sum(1 for entry in self.outputs_of_in_unit(node_id, unit) if entry == ALERT)
