"""Global awareness (§5.1): detecting an over-powered adversary.

The paper's local awareness (Def. 11) tells an impersonated node about
its own situation.  §5.1 adds a *global* concern: an "almost
(t,t)-limited" adversary — one that injects on arbitrarily many links —
can deny certificates to many nodes at once.  Emulation then fails, but
the system as a whole can still notice: under a genuinely (t,t)-limited
adversary at most ``t`` nodes per unit can be impaired, so **more than
t alerting nodes in one unit is proof the adversary exceeded the model**.

:func:`global_awareness` scans an execution for that signal, reading each
unit's alerting nodes from a replay of the runtime invariant monitor.
Operators in the paper's deployment story would treat it as the trigger
for out-of-band recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.monitor import RuntimeInvariantMonitor
from repro.sim.runner import replay
from repro.sim.transcript import Execution

__all__ = ["GlobalAwarenessReport", "global_awareness"]


@dataclass(frozen=True)
class GlobalAwarenessReport:
    """Per-unit alerting sets and the units that exceed the model."""

    t: int
    alerting_nodes: dict[int, frozenset[int]]
    #: units where the number of alerting nodes exceeds t — impossible
    #: under any (t,t)-limited adversary (except with negligible
    #: probability), hence evidence the model's bounds were exceeded
    model_exceeded_units: tuple[int, ...]

    @property
    def adversary_exceeded_model(self) -> bool:
        return bool(self.model_exceeded_units)


def global_awareness(execution: Execution, t: int) -> GlobalAwarenessReport:
    """Compute the §5.1 global-awareness signal for an execution."""
    monitor = replay(execution, RuntimeInvariantMonitor(t, fail_fast=False))
    alerting = monitor.alerting_nodes()
    exceeded = tuple(unit for unit, nodes in alerting.items() if len(nodes) > t)
    return GlobalAwarenessReport(t=t, alerting_nodes=alerting, model_exceeded_units=exceeded)
