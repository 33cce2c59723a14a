"""Recovery-SLO telemetry: how fast the protocol heals, as data.

The invariants (:mod:`repro.analysis.monitor`) say whether a run is
*correct*; this observer says how *well* it recovered — the
service-level reading of the paper's proactive-recovery contract
(Def. 5.3: a clean refreshment phase re-admits a faulted node).  Per run
it measures:

- **time-to-recovery** per impairment span, in time units: a node that
  goes down in unit ``u`` and re-enters the operational set during unit
  ``u + 1``'s refreshment phase scores ``1`` — exactly the "recovered
  one refresh later" contract that experiment E7 asserts, so the SLO
  number and the E7 test agree by construction (see
  ``tests/analysis/test_slo.py``).
- **alert latency**: rounds from the start of a node's open impairment
  span (or, failing that, its latest degraded event) to its ALERT
  output.
- **degraded-mode dwell**: rounds from each structured ``("degraded",
  {...})`` event to the node's next re-entry into the operational set
  (``0`` when the node never left it — degradation without
  disconnection).
- **signing availability** per unit: the fraction of nodes that kept
  their signing machinery, i.e. emitted neither ``no-certificate`` nor
  ``share-refresh-failed`` that unit.

Everything is exposed as JSON-ready structures via :meth:`report`, which
is what the E15 campaigns persist per probe.
"""

from __future__ import annotations

from typing import Any

from repro.sim.node import ALERT
from repro.sim.runner import RunObserver
from repro.sim.transcript import Execution, RoundRecord

__all__ = ["RecoverySloObserver"]

# degraded reasons that take a node's signing ability down for the unit
SIGNING_REASONS = frozenset({"no-certificate", "share-refresh-failed"})


class RecoverySloObserver(RunObserver):
    """Collect recovery SLOs round by round (read-only, JSON out)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []          # closed impairment spans
        self.alerts: list[dict] = []
        self.dwells: list[dict] = []         # resolved degraded dwells
        self.unrecovered: list[dict] = []    # spans still open at run end
        self._n: int | None = None
        self._open: dict[int, dict] = {}     # node -> open span
        self._open_dwells: dict[int, list[dict]] = {}
        self._last_degraded: dict[int, int] = {}
        self._signing_impaired: dict[int, set[int]] = {}  # unit -> nodes
        self._units_seen: set[int] = set()
        self._finalized = False

    # -- RunObserver -----------------------------------------------------------

    def on_round(self, execution: Execution, record: RoundRecord) -> None:
        n = self._n = execution.n
        info = record.info
        unit = info.time_unit
        self._units_seen.add(unit)
        impaired = set(record.broken) | (set(range(n)) - set(record.operational))

        # span openings and closings.  A re-admission happens at a
        # refreshment phase end, whose record already shows the node
        # operational — so the closing unit is the *recovering* unit.
        for node in sorted(impaired):
            if node not in self._open:
                self._open[node] = {"node": node, "start_round": info.round,
                                    "start_unit": unit}
        for node in sorted(set(self._open) - impaired):
            span = self._open.pop(node)
            span["end_round"] = info.round
            span["end_unit"] = unit
            span["ttr_units"] = unit - span["start_unit"]
            span["ttr_rounds"] = info.round - span["start_round"]
            self.spans.append(span)
            for dwell in self._open_dwells.pop(node, []):
                dwell["dwell_rounds"] = info.round - dwell["round"]
                self.dwells.append(dwell)

        for node, event_round, entry in self.new_outputs(execution, record):
            self._consume(node, event_round, entry, unit, impaired)

    def on_run_end(self, execution: Execution) -> None:
        if self._finalized:
            return
        self._finalized = True
        for node in sorted(self._open):
            span = dict(self._open[node])
            span["ttr_units"] = None
            self.unrecovered.append(span)
        for node in sorted(self._open_dwells):
            for dwell in self._open_dwells[node]:
                dwell["dwell_rounds"] = None  # never resolved in-run
                self.dwells.append(dwell)
        self._open_dwells = {}

    # -- internals -------------------------------------------------------------

    def _consume(self, node: int, event_round: int, entry: Any, unit: int,
                 impaired: set[int]) -> None:
        if entry == ALERT:
            if node in self._open:
                latency = event_round - self._open[node]["start_round"]
            elif node in self._last_degraded:
                latency = event_round - self._last_degraded[node]
            else:
                latency = None  # alert with no observed cause
            self.alerts.append({"node": node, "round": event_round,
                                "unit": unit, "latency_rounds": latency})
            return
        if (isinstance(entry, tuple) and len(entry) == 2 and entry[0] == "degraded"
                and isinstance(entry[1], dict)):
            payload = entry[1]
            self._last_degraded[node] = event_round
            reason = payload.get("reason")
            if reason in SIGNING_REASONS:
                event_unit = payload.get("unit", unit)
                self._signing_impaired.setdefault(event_unit, set()).add(node)
            dwell = {"node": node, "round": event_round, "unit": unit,
                     "reason": reason}
            if node in impaired:
                self._open_dwells.setdefault(node, []).append(dwell)
            else:
                dwell["dwell_rounds"] = 0  # degraded but never disconnected
                self.dwells.append(dwell)

    # -- reporting -------------------------------------------------------------

    def ttr_units(self, node: int | None = None) -> list[int]:
        """Closed spans' time-to-recovery in units (optionally one node)."""
        return [span["ttr_units"] for span in self.spans
                if node is None or span["node"] == node]

    def signing_availability(self) -> dict[int, float]:
        """Per unit: fraction of nodes whose signing machinery survived."""
        n = self._n or 1
        return {
            unit: 1.0 - len(self._signing_impaired.get(unit, ())) / n
            for unit in sorted(self._units_seen)
        }

    def report(self) -> dict:
        """The full SLO record, JSON-ready (E15 persists one per probe)."""
        ttr = self.ttr_units()
        latencies = [a["latency_rounds"] for a in self.alerts
                     if a["latency_rounds"] is not None]
        dwells = [d["dwell_rounds"] for d in self.dwells
                  if d["dwell_rounds"] is not None]
        availability = self.signing_availability()
        return {
            "spans": list(self.spans),
            "unrecovered": list(self.unrecovered),
            "alerts": list(self.alerts),
            "dwells": list(self.dwells),
            "ttr_units_max": max(ttr) if ttr else 0,
            "alert_latency_max": max(latencies) if latencies else 0,
            "dwell_rounds_max": max(dwells) if dwells else 0,
            "signing_availability": {str(u): v for u, v in availability.items()},
            "signing_availability_min": min(availability.values()) if availability else 1.0,
        }
