"""One verdict per run: every oracle the paper gives, in one report.

Theorems 14 and 30 and Proposition 31 judge a run by one bundle, and
:class:`Verdict` is that bundle: a :class:`~repro.sim.runner.RunObserver`
attached live (``Runner(observers=[...])``) or replayed by
:func:`verdict`.  What it checks follows from the programs:

- the emulation invariants I1–I3 and the Definition 7 limit, decided by
  its :class:`~repro.analysis.monitor.RuntimeInvariantMonitor` (the
  per-unit limit is read off the monitor's ledger);
- GOOD / BAD1–3 (Defs. 17–18) when the programs hold ULS keystores
  (:class:`~repro.core.uls.UlsProgram`, Λ's ``AuthenticatedProgram``): a
  :class:`~repro.analysis.goodness.GoodnessObserver`, judged against the
  keystores' key histories and certified keys;
- UVer: every signature a ``UlsProgram`` holds passes
  :func:`~repro.core.uls.verify_user_signature`;
- Definition 10 impersonation (:func:`repro.core.views.impersonated_nodes`):
  never of a node operational through the unit (Theorem 30's
  t-emulation), and every impersonated node alerts in that unit
  (Proposition 31's awareness);
- §5.1 global awareness: more than ``t`` alerting nodes in one unit is
  impossible under a (t,t)-limited adversary.

A run is *clean* when its report names no problem; a run beyond
Definition 7 never is, but its report still says how the rest went.
GOOD classification reads traffic, so on a ``compact_records`` run
attach the verdict live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.adversary.limits import LimitReport
from repro.analysis.goodness import GoodnessObserver, GoodnessReport
from repro.analysis.monitor import RuntimeInvariantMonitor, Violation
from repro.core.uls import UlsCore, UlsProgram, verify_user_signature
from repro.core.views import impersonated_nodes
from repro.sim.node import NodeProgram
from repro.sim.runner import RunObserver, replay
from repro.sim.transcript import Execution, RoundRecord

__all__ = ["Impersonation", "Verdict", "VerdictReport", "check_emulation_invariants", "verdict"]


@dataclass(frozen=True)
class Impersonation:
    """Definition 10: ``forged`` messages in ``node``'s external view of
    ``unit`` that its internal view lacks."""

    unit: int
    node: int
    forged: int
    operational: bool  # through the whole unit, which Theorem 30 rules out
    alerted: bool      # in the unit, which Proposition 31 requires


@dataclass
class VerdictReport:
    """What :meth:`Verdict.report` decides about one run."""

    t: int
    violations: list[Violation]  # I1–I3, in detection order
    limit: LimitReport  # Definition 7, per unit
    alerting_nodes: dict[int, frozenset[int]]
    goodness: GoodnessReport | None = None  # None: no ULS keystores to judge
    bad_signatures: list[tuple[int, Any, int]] = field(default_factory=list)  # (node, m, u)
    impersonations: list[Impersonation] = field(default_factory=list)

    @property
    def within_model(self) -> bool:
        return self.limit.within_limits

    @property
    def classification(self) -> str | None:
        return None if self.goodness is None else self.goodness.classification

    @property
    def model_exceeded_units(self) -> tuple[int, ...]:
        """§5.1: the units in which more than ``t`` nodes alerted."""
        return tuple(unit for unit, nodes in self.alerting_nodes.items()
                     if len(nodes) > self.t)

    def problems(self) -> list[str]:
        """One line per failed check; empty for a clean run."""
        lines = [f"{v.invariant} in unit {v.unit} at round {v.event_round}: {v.details!r}"
                 for v in self.violations]
        lines += [f"unit {unit} exceeds Definition 7: {sorted(nodes)} impaired, limit {self.t}"
                  for unit, nodes in self.limit.violations.items()]
        if self.goodness is not None and not self.goodness.good:
            lines.append(f"{self.goodness.classification}: {len(self.goodness.forged)} forged "
                         f"messages, BAD1 (unit, node) {self.goodness.bad1_failures}")
        lines += [f"node {node}: bad signature on {message!r}/{unit}"
                  for node, message, unit in self.bad_signatures]
        for item in self.impersonations:
            if item.operational:
                lines.append(f"unit {item.unit}: operational node {item.node} "
                             f"impersonated ({item.forged} forged)")
            if not item.alerted:
                lines.append(f"unit {item.unit}: impersonated node {item.node} did not alert")
        lines += [f"unit {unit}: {len(self.alerting_nodes[unit])} > t nodes alerted"
                  for unit in self.model_exceeded_units]
        return lines

    @property
    def clean(self) -> bool:
        return not self.problems()

    def as_dict(self) -> dict:
        """A JSON-ready summary."""
        problems = self.problems()
        return {"clean": not problems, "classification": self.classification,
                "within_definition_7": self.within_model, "problems": problems}


class Verdict(RunObserver):
    """All of a run's oracles, read round by round (see module docstring):
    ``t`` is also Definition 7's bound, :meth:`report` reads ``programs``,
    and ``fail_fast`` is the monitor's."""

    def __init__(self, t: int, programs: Sequence[NodeProgram], *,
                 fail_fast: bool = True) -> None:
        self.t = t
        self.programs = list(programs)
        self.monitor = RuntimeInvariantMonitor(t, fail_fast=fail_fast)
        cores = [getattr(program, "core", None) for program in self.programs]
        self._cores = cores if cores and all(isinstance(c, UlsCore) for c in cores) else []
        self.goodness = (GoodnessObserver(cores[0].state.public, cores[0].keystore.scheme)
                         if self._cores else None)

    def on_round(self, execution: Execution, record: RoundRecord) -> None:
        self.monitor.on_round(execution, record)
        if self.goodness is not None:
            self.goodness.on_round(execution, record)

    def on_run_end(self, execution: Execution) -> None:
        self.monitor.on_run_end(execution)

    def report(self, execution: Execution) -> VerdictReport:
        """Decide the finished ``execution`` this verdict observed."""
        monitor = self.monitor
        alerting = monitor.alerting_nodes()
        report = VerdictReport(
            t=self.t,
            violations=[v for v in monitor.violations if v.invariant != "L1-limit"],
            limit=LimitReport.of(self.t, monitor.ledger.impaired),
            alerting_nodes=alerting,
        )
        if self.goodness is not None:
            report.goodness = self.goodness.report(
                {i: dict(core.keystore.history) for i, core in enumerate(self._cores)},
                {i: dict(core.keystore.key_reprs) for i, core in enumerate(self._cores)},
            )
        for node, program in enumerate(self.programs):
            if isinstance(program, UlsProgram):
                report.bad_signatures += [
                    (node, message, unit)
                    for (message, unit), signature in program.signatures.items()
                    if not verify_user_signature(program.state.public, message, unit, signature)
                ]
        for unit in range(execution.units()):
            operational = monitor.ledger.operational[unit]
            report.impersonations += [
                Impersonation(unit, node, len(forged), operational=node in operational,
                              alerted=node in alerting.get(unit, ()))
                for node, forged in impersonated_nodes(execution, unit).items()
            ]
        return report


def verdict(execution: Execution, t: int, programs: Sequence[NodeProgram]) -> VerdictReport:
    """The report of a :class:`Verdict` replayed over a finished execution
    (not fail-fast; ``programs`` as for :class:`Verdict`)."""
    return replay(execution, Verdict(t, programs, fail_fast=False)).report(execution)


@dataclass(frozen=True)
class EmulationReport:
    violations: list[tuple[str, Any]]


def check_emulation_invariants(execution: Execution, t: int) -> EmulationReport:
    """The verdict's I1–I3 violations alone, as ``(label, payload)`` pairs
    in detection order: a replay of its monitor, and nothing else."""
    monitor = replay(execution, RuntimeInvariantMonitor(t, fail_fast=False))
    return EmulationReport([v.as_tuple() for v in monitor.violations
                            if v.invariant != "L1-limit"])
