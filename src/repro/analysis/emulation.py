"""Emulation invariants: finite checks behind Definition 12.

We cannot test computational indistinguishability of output ensembles;
what we *can* test are the finite, per-execution events that the proofs
of Lemmas 26–28 use to distinguish real from ideal executions.  An
execution whose global output violates one of these could not have been
produced by any ideal-model forger, so each invariant violation would be
a working distinguisher — experiments assert zero violations:

- **I1 (threshold / unforgeability)**: a message reported ``signed`` (or
  carrying a verifying signature) must have at least ``t + 1`` sign
  requests behind it.  Requests issued through broken nodes leave no
  output (the adversary speaks for them), so the check credits the
  adversary with every node broken during the unit.
- **I2 (liveness)**: if at least ``n - t`` nodes that stayed operational
  through a unit were asked to sign ``(m, u)`` early enough, all of them
  must report ``signed`` (the Lemma 26 event, inverted).
- **I3 (alert soundness)**: a node that stayed operational through a
  whole unit never alerts in it (t-emulation makes alerts impossible for
  operational nodes — §2.3).

The invariants are implemented once, in
:class:`~repro.analysis.monitor.RuntimeInvariantMonitor`, which also
fixes when each one is decided; :func:`check_emulation_invariants`
replays a finished execution through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.monitor import RuntimeInvariantMonitor
from repro.sim.runner import replay
from repro.sim.transcript import Execution

__all__ = ["EmulationReport", "check_emulation_invariants"]


@dataclass
class EmulationReport:
    violations: list[tuple[str, Any]] = field(default_factory=list)
    signed_messages: set[tuple[Any, int]] = field(default_factory=set)
    request_counts: dict[tuple[Any, int], int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_emulation_invariants(execution: Execution, t: int) -> EmulationReport:
    """Run invariants I1–I3 over an execution's global output.

    Violations come in detection order; the per-round adversary limit,
    which the monitor also checks, is left to
    :func:`repro.adversary.limits.audit_st_limited`.
    """
    monitor = replay(execution, RuntimeInvariantMonitor(t, fail_fast=False))
    return EmulationReport(
        violations=[v.as_tuple() for v in monitor.violations if v.invariant != "L1-limit"],
        signed_messages=monitor.signed_messages(),
        request_counts=monitor.request_counts(),
    )
