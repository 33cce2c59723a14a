"""Adaptive chaos campaigns: escalation and frontier search.

A *campaign* answers one question about one scenario: **how aggressive
can this adaptive strategy get before an invariant breaks?**  For a
guarded scenario (requests projected through the
:class:`~repro.faults.plan.StBudgetGuard`) the expected answer is
"arbitrarily — the guard holds", and the campaign certifies the safety
margin by running the full escalation ladder violation-free.  For an
unguarded scenario the campaign walks the ladder until the first
:class:`~repro.analysis.monitor.InvariantViolationError`, then bisects
between the last clean and first violating knob — the *failure frontier*
— which localises exactly how much over-budget pressure the protocol
absorbs before Definition 7's guarantees stop applying.

A probe is clean if its run's :class:`~repro.analysis.verdict.Verdict`
is; one whose run finishes carries the transcript digest
(:func:`repro.analysis.digest.transcript_digest`), which is what the E15
determinism replay compares.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.analysis.digest import transcript_digest
from repro.analysis.monitor import InvariantViolationError, Violation
from repro.analysis.verdict import Verdict
from repro.sim.runner import Runner
from repro.sim.transcript import Execution

__all__ = [
    "Probe",
    "ProbeOutcome",
    "run_probe",
    "CampaignResult",
    "escalate",
    "DEFAULT_LADDER",
]

DEFAULT_LADDER = (0.2, 0.4, 0.6, 0.8, 1.0)


@dataclass
class Probe:
    """One ready-to-run simulation, built fresh for each probe.

    ``build(aggressiveness) -> Probe`` factories hand these to
    :func:`run_probe`; ``verdict`` must be attached to the runner's
    observers already (the probe only declares where to read its
    report from), and ``extras`` collects any JSON-ready per-run
    telemetry (the E15 bench puts the SLO report here).
    """

    runner: Runner
    units: int
    verdict: Verdict
    extras: Callable[[Execution], dict] | None = None


@dataclass
class ProbeOutcome:
    """Verdict of one probe (JSON-ready via :meth:`as_dict`)."""

    aggressiveness: float
    ok: bool
    violation: dict | None = None
    verdict: dict | None = None  # VerdictReport.as_dict() of a run that finished
    digest: str | None = None
    rounds: int = 0
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _violation_dict(violation: Violation) -> dict:
    return {
        "invariant": violation.invariant,
        "unit": violation.unit,
        "event_round": violation.event_round,
        "detected_round": violation.detected_round,
        "details": repr(violation.details),
    }


def run_probe(build: Callable[[float], Probe], aggressiveness: float) -> ProbeOutcome:
    """Run one freshly built probe at one knob setting.

    An :class:`InvariantViolationError` from a fail-fast verdict is the
    *answer*, not an error: the outcome records the violation with full
    round attribution.  A run that finishes is as clean as its verdict
    report, whose first monitor violation, if any, is the outcome's, and
    carries its transcript digest.
    """
    probe = build(aggressiveness)
    try:
        execution = probe.runner.run(probe.units)
    except InvariantViolationError as error:
        return ProbeOutcome(
            aggressiveness=aggressiveness, ok=False,
            violation=_violation_dict(error.violation),
            rounds=len(probe.runner.execution.records),
        )
    report = probe.verdict.report(execution)
    violations = probe.verdict.monitor.violations
    outcome = ProbeOutcome(
        aggressiveness=aggressiveness,
        ok=report.clean,
        violation=_violation_dict(violations[0]) if violations else None,
        verdict=report.as_dict(),
        digest=transcript_digest(execution),
        rounds=len(execution.records),
    )
    if probe.extras is not None:
        outcome.extras = probe.extras(execution)
    return outcome


@dataclass
class CampaignResult:
    """Outcome of one escalation campaign."""

    campaign_id: str
    frontier: float | None          # lowest knob observed violating
    last_clean: float | None        # highest knob observed clean
    margin_established: bool        # whole ladder (top included) ran clean
    first_violation: dict | None
    probes: list[ProbeOutcome]

    def as_dict(self) -> dict:
        return {
            "campaign_id": self.campaign_id,
            "frontier": self.frontier,
            "last_clean": self.last_clean,
            "margin_established": self.margin_established,
            "first_violation": self.first_violation,
            "probes": [probe.as_dict() for probe in self.probes],
        }


def escalate(
    campaign_id: str,
    build: Callable[[float], Probe],
    *,
    ladder: tuple[float, ...] = DEFAULT_LADDER,
    bisect_steps: int = 3,
) -> CampaignResult:
    """Escalate the aggressiveness knob to the failure frontier.

    Walks ``ladder`` in ascending order until the first violating probe,
    then runs a *bounded* bisection (``bisect_steps`` extra probes)
    between the last clean and first violating knob to tighten the
    frontier.  If the whole ladder is clean the safety margin is
    established and no bisection runs.
    """
    probes: list[ProbeOutcome] = []
    last_clean: float | None = None
    frontier: float | None = None
    first_violation: dict | None = None

    for knob in sorted(ladder):
        outcome = run_probe(build, knob)
        probes.append(outcome)
        if not outcome.ok:
            frontier = knob
            first_violation = outcome.violation
            break
        last_clean = knob

    if frontier is not None:
        lo = last_clean if last_clean is not None else 0.0
        hi = frontier
        for _ in range(bisect_steps):
            mid = round((lo + hi) / 2, 6)
            if mid <= lo or mid >= hi:
                break
            outcome = run_probe(build, mid)
            probes.append(outcome)
            if outcome.ok:
                lo, last_clean = mid, mid
            else:
                hi, frontier = mid, mid
                first_violation = outcome.violation
    margin = frontier is None and last_clean is not None and last_clean == max(ladder)
    return CampaignResult(
        campaign_id=campaign_id,
        frontier=frontier,
        last_clean=last_clean,
        margin_established=margin,
        first_violation=first_violation,
        probes=probes,
    )
