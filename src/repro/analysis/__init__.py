"""Analysis of executions, live or post hoc.

- :mod:`repro.analysis.goodness` — the Definition 17/18 classification
  (GOOD vs BAD1/BAD2/BAD3) that drives the Theorem 14 experiments: an
  observer, live or replayed (:func:`repro.sim.runner.replay`).
- :mod:`repro.analysis.monitor` — the one implementation of the
  emulation invariants I1–I3 and the per-round Definition 7 limit,
  evaluated *during* the run (attach to a runner as an observer;
  fail-fast).
- :mod:`repro.analysis.emulation` — the invariants' definitions (§3.1,
  Lemmas 26–28) and their post-hoc check, which replays a finished
  execution through the monitor (:func:`repro.sim.runner.replay`).
- :mod:`repro.analysis.awareness` — the §5.1 global-awareness signal,
  read from the same replay.
- :mod:`repro.analysis.metrics` — message/alert/availability statistics.
- :mod:`repro.analysis.digest` — canonical transcript digests (the
  determinism-replay primitive) and the per-round ``RoundsDigest``
  observer.
- :mod:`repro.analysis.slo` — recovery-SLO telemetry (time-to-recovery,
  alert latency, degraded dwell, signing availability).
"""

from repro.analysis.awareness import GlobalAwarenessReport, global_awareness
from repro.analysis.digest import stable_form, transcript_digest
from repro.analysis.slo import RecoverySloObserver
from repro.analysis.emulation import EmulationReport, check_emulation_invariants
from repro.analysis.goodness import (
    ForgedMessage,
    GoodnessObserver,
    GoodnessReport,
    classify_execution,
)
from repro.analysis.monitor import (
    InvariantViolationError,
    RuntimeInvariantMonitor,
    Violation,
)
from repro.analysis.metrics import MessageStats, message_stats

__all__ = [
    "GlobalAwarenessReport",
    "global_awareness",
    "EmulationReport",
    "check_emulation_invariants",
    "InvariantViolationError",
    "RuntimeInvariantMonitor",
    "Violation",
    "ForgedMessage",
    "GoodnessObserver",
    "GoodnessReport",
    "classify_execution",
    "MessageStats",
    "message_stats",
    "RecoverySloObserver",
    "stable_form",
    "transcript_digest",
]
