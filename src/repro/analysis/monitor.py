"""Runtime invariant monitoring: the one implementation of I1–I3.

:class:`RuntimeInvariantMonitor` decides the emulation invariants I1–I3
— the finite events the proofs of Lemmas 26–28 use to tell real from
ideal executions, so each violation would be a working distinguisher —
and the Definition 7 per-round limit.  Attached to a runner as a
:class:`~repro.sim.runner.RunObserver` — in practice as part of a run's
:class:`~repro.analysis.verdict.Verdict`, which owns one — it consumes
each :class:`~repro.sim.transcript.RoundRecord` and each node-output
entry the moment it appears and raises :class:`InvariantViolationError`
(or, with ``fail_fast=False``, records the violation) with *exact round
attribution*: the round of the offending event and the round at which the
violation became decidable.  The post-hoc verdict
(:func:`repro.analysis.verdict.verdict`) replays a finished execution
through this same monitor (:func:`repro.sim.runner.replay`).

A round-by-round checker must respect what is decidable *when* — the
invariants quantify over whole time units, so checking them naively
mid-unit produces false alarms (a legitimately-signed message looks
under-requested until the unit's requests and break-ins have all
happened).  The finalization points are:

- **L1 (adversary limit, Definition 7)** — per round, immediately: the
  impaired set ``broken ∪ non-operational`` may never exceed ``t``
  nodes.  The count is the monitor's
  :class:`~repro.adversary.limits.UnitLedger`, the same fold that
  :func:`repro.adversary.limits.audit_st_limited` runs post hoc, and L1
  is the only invariant that is decidable the very round it breaks — it
  is what powers the "fail-fast with the exact round number" guarantee
  on over-budget plans.
- **I1 (threshold)** — a message reported ``signed`` has at least
  ``t + 1`` sign requests behind it, counting every node broken in the
  unit (its requests leave no output).  Decided once per ``(message,
  unit)`` once the unit's data is final: at the unit boundary for events
  inside the unit, immediately for events arriving after it (threshold
  signing may legitimately complete early in unit ``u + 1``).  The
  report names every node that reported the message signed; a later
  signer is added to it.
- **I2 (liveness)** — if at least ``n - t`` nodes operational through
  unit ``u`` were asked to sign ``(m, u)``, all of them report it
  ``signed`` (the Lemma 26 event, inverted).  Decided when unit
  ``u + 2`` starts (one-unit grace for late ``signed`` events) or at
  run end; a ``signed`` reported later than that does not count.
- **I3 (alert soundness)** — a node operational through a whole unit
  never alerts in it (§2.3).  Decided at the unit boundary ("operational
  throughout" is not knowable earlier), once per alerting node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.adversary.limits import UnitLedger
from repro.sim.node import ALERT
from repro.sim.runner import RunObserver
from repro.sim.transcript import Execution, RoundRecord

__all__ = ["InvariantViolationError", "RuntimeInvariantMonitor", "Violation"]


@dataclass(frozen=True)
class Violation:
    """One invariant violation with full round attribution."""

    invariant: str       # "L1-limit" / "I1-threshold" / "I2-liveness" / "I3-false-alert"
    unit: int
    event_round: int     # round of the offending event (or of detection for I2)
    detected_round: int  # round at which the violation became decidable
    details: Any

    def as_tuple(self) -> tuple[str, Any]:
        """The ``(label, payload)`` shape of
        :func:`~repro.analysis.verdict.check_emulation_invariants`."""
        return (self.invariant, self.details)


class InvariantViolationError(AssertionError):
    """Raised by a fail-fast monitor the moment a violation is decidable."""

    def __init__(self, violation: Violation) -> None:
        self.violation = violation
        super().__init__(
            f"{violation.invariant} in unit {violation.unit}: "
            f"event at round {violation.event_round}, "
            f"detected at round {violation.detected_round}: {violation.details}"
        )


@dataclass
class _UnitState:
    alerts: dict[int, int] = field(default_factory=dict)      # node -> first alert round
    asked: dict[Any, set[int]] = field(default_factory=dict)  # message -> requesters
    signed: dict[Any, set[int]] = field(default_factory=dict)  # message -> reporters
    # message -> round of its first "signed", awaiting the unit boundary
    pending: dict[Any, int] = field(default_factory=dict)
    final: bool = False      # I1 and I3 decided
    i2_final: bool = False


class RuntimeInvariantMonitor(RunObserver):
    """Incremental I1/I2/I3 + per-round adversary-limit checking.

    Args:
        t: the protocol's resilience threshold, which is also the
            per-round impaired-set bound of the L1 check.
        fail_fast: raise :class:`InvariantViolationError` at detection
            (default); otherwise collect into :attr:`violations`.
    """

    def __init__(self, t: int, *, fail_fast: bool = True) -> None:
        self.t = t
        self.fail_fast = fail_fast
        self.violations: list[Violation] = []
        self.rounds_seen = 0
        self.finalized = False
        self.ledger = UnitLedger()
        self._units: dict[int, _UnitState] = {}
        self._i1: dict[Any, int] = {}  # (message, unit) -> index in violations
        self._last_unit = -1

    # -- RunObserver ----------------------------------------------------------

    def on_round(self, execution: Execution, record: RoundRecord) -> None:
        n = execution.n
        info = record.info
        unit = info.time_unit
        self.rounds_seen += 1

        # unit boundary: everything about earlier units is now final
        if unit > self._last_unit:
            for done in range(max(self._last_unit, 0), unit):
                self._finalize_unit(done, n, detected_round=info.round)
            for done in range(0, unit - 1):
                self._finalize_i2(done, n, detected_round=info.round)
            self._last_unit = unit
        self._units.setdefault(unit, _UnitState())

        # L1: the only invariant decidable the round it breaks
        impaired = self.ledger.add(n, record)
        if len(impaired) > self.t:
            self._violate(Violation(
                invariant="L1-limit",
                unit=unit,
                event_round=info.round,
                detected_round=info.round,
                details={"impaired": sorted(impaired), "limit": self.t},
            ))

        for node, event_round, entry in self.new_outputs(execution, record):
            self._consume(node, event_round, entry, unit)

    def on_run_end(self, execution: Execution) -> None:
        if self.finalized:
            return
        n = execution.n
        last_round = execution.records[-1].info.round if execution.records else 0
        for unit in sorted(self._units):
            self._finalize_unit(unit, n, detected_round=last_round)
            self._finalize_i2(unit, n, detected_round=last_round)
        self.finalized = True

    # -- reporting ------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def alerting_nodes(self) -> dict[int, frozenset[int]]:
        """Per unit with an alert, the alerting nodes (the sets I3 judges)."""
        units = sorted(unit for unit, state in self._units.items() if state.alerts)
        return {unit: frozenset(self._units[unit].alerts) for unit in units}

    # -- internals ------------------------------------------------------------

    def _consume(self, node: int, event_round: int, entry: Any, unit: int) -> None:
        if entry == ALERT:
            self._units[unit].alerts.setdefault(node, event_round)
            return
        if not isinstance(entry, tuple) or len(entry) != 3:
            return
        head, message, event_unit = entry
        if head not in ("asked-to-sign", "signed"):
            return
        state = self._units.setdefault(event_unit, _UnitState())
        message = _key(message)
        if head == "asked-to-sign":
            state.asked.setdefault(message, set()).add(node)
            return
        state.signed.setdefault(message, set()).add(node)
        if state.final:
            # the event's unit is over: its request/break-in data is
            # final, so this signature is decidable right now
            self._check_i1(event_unit, message, event_round, detected_round=event_round)
        else:
            state.pending.setdefault(message, event_round)

    def _check_i1(self, unit: int, message: Any, event_round: int, detected_round: int) -> None:
        state = self._units[unit]
        key = (message, unit)
        credited = len(state.asked.get(message, ())) + len(self.ledger.broken.get(unit, ()))
        details = (key, sorted(state.signed[message]), credited)
        index = self._i1.get(key)
        if index is not None:
            self.violations[index] = replace(self.violations[index], details=details)
        elif credited < self.t + 1:
            self._i1[key] = len(self.violations)
            self._violate(Violation(
                invariant="I1-threshold",
                unit=unit,
                event_round=event_round,
                detected_round=detected_round,
                details=details,
            ))

    def _finalize_unit(self, unit: int, n: int, detected_round: int) -> None:
        state = self._units.setdefault(unit, _UnitState())
        if state.final:
            return
        state.final = True
        for message, event_round in state.pending.items():
            self._check_i1(unit, message, event_round, detected_round=detected_round)
        state.pending.clear()
        # I3: stability over the unit is now known (a unit that no record
        # reached had every node operational)
        stable = self.ledger.operational.get(unit, frozenset(range(n)))
        for node, event_round in state.alerts.items():
            if node in stable:
                self._violate(Violation(
                    invariant="I3-false-alert",
                    unit=unit,
                    event_round=event_round,
                    detected_round=detected_round,
                    details=(unit, node),
                ))

    def _finalize_i2(self, unit: int, n: int, detected_round: int) -> None:
        state = self._units.setdefault(unit, _UnitState())
        if state.i2_final:
            return
        state.i2_final = True
        stable = self.ledger.operational.get(unit, frozenset(range(n)))
        for message, requesters in state.asked.items():
            stable_requesters = requesters & stable
            if len(stable_requesters) >= n - self.t:
                missing = stable_requesters - state.signed.get(message, set())
                if missing:
                    self._violate(Violation(
                        invariant="I2-liveness",
                        unit=unit,
                        event_round=detected_round,
                        detected_round=detected_round,
                        details=((message, unit), sorted(missing)),
                    ))

    def _violate(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.fail_fast:
            raise InvariantViolationError(violation)


def _key(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)
