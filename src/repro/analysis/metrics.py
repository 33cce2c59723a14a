"""Message counts shared by the experiments and benchmarks: a pure
function over a finished :class:`~repro.sim.transcript.Execution`, and
the closed form a benign refreshment phase must meet."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import Phase
from repro.sim.transcript import Execution

__all__ = ["MessageStats", "message_stats", "expected_msgs_per_refresh"]


@dataclass(frozen=True)
class MessageStats:
    """Envelope counts, split the ways the experiments need."""

    total: int
    by_phase: dict[str, int]
    by_channel: dict[str, int]
    per_refresh_phase: float
    per_normal_round: float


def message_stats(execution: Execution) -> MessageStats:
    by_phase: dict[str, int] = {}
    by_channel: dict[str, int] = {}
    refresh_rounds = 0
    normal_rounds = 0
    for record in execution.records:
        phase = record.info.phase.value
        by_phase[phase] = by_phase.get(phase, 0) + record.sent_count
        if record.info.phase is Phase.REFRESH:
            refresh_rounds += 1
        elif record.info.phase is Phase.NORMAL:
            normal_rounds += 1
        # works on compact records too: both kinds expose sent_by_channel
        for channel, count in record.sent_by_channel.items():
            by_channel[channel] = by_channel.get(channel, 0) + count
    total = sum(by_phase.values())
    refresh_phases = max(1, execution.units() - 1)
    return MessageStats(
        total=total,
        by_phase=by_phase,
        by_channel=by_channel,
        per_refresh_phase=by_phase.get("refresh", 0) / refresh_phases,
        per_normal_round=by_phase.get("normal", 0) / max(1, normal_rounds),
    )


def expected_msgs_per_refresh(n: int, f: int, wire: str) -> int:
    """Envelopes one benign ULS refreshment phase sends with ``n`` nodes,
    DISPERSE relay fanout ``f`` (``n − 1`` for a full flood) and refresh
    wire format ``wire``.  A DISPERSE to one node costs ``E = 2f − 1``
    envelopes and one to ``BROADCAST`` ``B = f(n − 1)``; the ``n(n − 1)``
    key announcements ride raw links.  Channel by channel:
    ``docs/PROTOCOLS.md`` §12."""
    e, b, newkey = 2 * f - 1, f * (n - 1), n * (n - 1)
    return {
        "paper": e * n * (n - 1) * (5 * n + 4) + newkey,
        "aggregated": 6 * n * b + 3 * n * (n - 1) * e + newkey,
    }[wire]
