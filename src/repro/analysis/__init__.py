"""Analysis of executions, live or post hoc.

- :mod:`repro.analysis.verdict` — one verdict per run: every oracle
  the paper gives in one report, live or replayed.
- :mod:`repro.analysis.goodness` — the Definition 17/18 classification
  (GOOD vs BAD1/BAD2/BAD3) the verdict runs on ULS programs.
- :mod:`repro.analysis.monitor` — the one implementation of the
  emulation invariants I1–I3 and the per-round Definition 7 limit,
  evaluated *during* the run (fail-fast); the verdict owns one.
- :mod:`repro.analysis.metrics` — message/alert/availability statistics.
- :mod:`repro.analysis.digest` — canonical transcript digests (the
  determinism-replay primitive) and the per-round ``RoundsDigest``
  observer.
- :mod:`repro.analysis.slo` — recovery-SLO telemetry (time-to-recovery,
  alert latency, degraded dwell, signing availability).
"""

from repro.analysis.digest import stable_form, transcript_digest
from repro.analysis.slo import RecoverySloObserver
from repro.analysis.goodness import ForgedMessage, GoodnessObserver, GoodnessReport
from repro.analysis.monitor import (
    InvariantViolationError,
    RuntimeInvariantMonitor,
    Violation,
)
from repro.analysis.metrics import MessageStats, message_stats
from repro.analysis.verdict import (Impersonation, Verdict, VerdictReport,
                                    check_emulation_invariants)

__all__ = [
    "Impersonation",
    "Verdict",
    "VerdictReport",
    "check_emulation_invariants",
    "InvariantViolationError",
    "RuntimeInvariantMonitor",
    "Violation",
    "ForgedMessage",
    "GoodnessObserver",
    "GoodnessReport",
    "MessageStats",
    "message_stats",
    "RecoverySloObserver",
    "stable_form",
    "transcript_digest",
]
