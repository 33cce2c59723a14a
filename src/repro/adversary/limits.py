"""Adversary-power accounting: Definitions 3 and 7.

:class:`UnitLedger` is the one fold of the per-unit counts, one round
record at a time.  The runtime monitor
(:class:`repro.analysis.monitor.RuntimeInvariantMonitor`) owns one for
its per-round limit check, and the auditors below fold a finished
:class:`~repro.sim.transcript.Execution` through one to decide whether
the adversary stayed within its declared limits:

- :func:`audit_t_limited` — AL model (Def. 3): at most ``t`` nodes broken
  into per time unit;
- :func:`audit_st_limited` — UL model (Def. 7): at most ``t`` nodes broken
  *or s-disconnected* per time unit.

Security statements in the paper are conditioned on these limits: a
run's verdict (:mod:`repro.analysis.verdict`) reports Definition 7 from
its monitor's ledger through :meth:`LimitReport.of`, as the audits do.
The ledger reads only the status fields that compact records keep too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.transcript import Execution, RoundRecord

__all__ = ["LimitReport", "UnitLedger", "audit_t_limited", "audit_st_limited"]


@dataclass(frozen=True)
class LimitReport:
    """Outcome of a limit audit."""

    limit: int
    per_unit_impaired: dict[int, frozenset[int]]
    violations: dict[int, frozenset[int]]  # unit -> impaired set, where |set| > limit

    @classmethod
    def of(cls, limit: int, per_unit: dict[int, frozenset[int]]) -> "LimitReport":
        violations = {unit: nodes for unit, nodes in per_unit.items() if len(nodes) > limit}
        return cls(limit=limit, per_unit_impaired=per_unit, violations=violations)

    @property
    def within_limits(self) -> bool:
        return not self.violations

    @property
    def worst_unit_size(self) -> int:
        if not self.per_unit_impaired:
            return 0
        return max(len(nodes) for nodes in self.per_unit_impaired.values())


class UnitLedger:
    """The Definition 3/7 counts of each unit, folded round by round.

    Per unit: ``broken`` is the union of the broken sets (Def. 3);
    ``impaired`` is the largest ``broken ∪ non-operational`` set of any
    single round, the earliest on ties (Def. 7, instantaneous reading —
    see :func:`audit_st_limited`); ``operational`` holds the nodes
    operational in every round so far.
    """

    def __init__(self) -> None:
        self.broken: dict[int, frozenset[int]] = {}
        self.impaired: dict[int, frozenset[int]] = {}
        self.operational: dict[int, frozenset[int]] = {}

    def add(self, n: int, record: RoundRecord) -> frozenset[int]:
        """Fold one round into its unit; returns the round's impaired set."""
        unit = record.info.time_unit
        impaired = record.broken | (frozenset(range(n)) - record.operational)
        self.broken[unit] = self.broken.get(unit, frozenset()) | record.broken
        if len(impaired) > len(self.impaired.setdefault(unit, impaired)):
            self.impaired[unit] = impaired
        throughout = self.operational.get(unit, record.operational)
        self.operational[unit] = throughout & record.operational
        return impaired


def _folded(execution: Execution) -> UnitLedger:
    ledger = UnitLedger()
    for record in execution.records:
        ledger.add(execution.n, record)
    return ledger


def audit_t_limited(execution: Execution, t: int) -> LimitReport:
    """Definition 3: the adversary broke into at most ``t`` nodes per unit
    (union over the unit's rounds — break-ins are explicit events)."""
    return LimitReport.of(t, _folded(execution).broken)


def audit_st_limited(execution: Execution, t: int) -> LimitReport:
    """Definition 7 with the runner's ``s``: at most ``t`` nodes broken or
    s-disconnected per unit.

    Definition 7's per-unit count is ambiguous once recovery lag enters:
    a node broken in unit ``u`` remains s-*disconnected* through the
    refreshment phase at the start of ``u+1`` (Def. 5.3 re-admits it only
    at the phase's end), so under a union-over-the-unit reading the
    canonical rotate-t-victims-per-unit adversary would already be
    2t-limited.  The paper's narrative clearly intends such rotation to be
    legal, which corresponds to the *instantaneous* reading audited here:
    at most ``t`` nodes impaired at any single round of the unit.
    """
    return LimitReport.of(t, _folded(execution).impaired)
