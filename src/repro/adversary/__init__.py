"""Adversary framework: capabilities, power accounting and strategies.

The capability API (break-ins, rushing, delivery control) lives in
:mod:`repro.sim.adversary_api`, next to the runner; it is re-exported here.

- :mod:`repro.adversary.connectivity` — reliable links and s-operational
  node tracking (Definitions 4–6).
- :mod:`repro.adversary.limits` — t-limited / (s,t)-limited audits
  (Definitions 3 and 7), folded through the one per-unit count,
  :class:`~repro.adversary.limits.UnitLedger`, that the runtime monitor
  also keeps.
- :mod:`repro.adversary.strategies` — the named attacks that read the
  traffic (§1.1 cut-off, §5.1 injection flood, replay); scheduled
  break-ins and link faults are :mod:`repro.faults` plans.
- :mod:`repro.adversary.impersonation` — stolen- and fresh-key forgers.
"""

# before .connectivity: this import loads the runner, which imports it
from repro.sim.adversary_api import Adversary, AdversaryApi, PassiveAdversary, faithful_delivery
from repro.adversary.connectivity import ConnectivityTracker
from repro.adversary.limits import LimitReport, audit_st_limited, audit_t_limited

__all__ = [
    "Adversary",
    "AdversaryApi",
    "PassiveAdversary",
    "faithful_delivery",
    "ConnectivityTracker",
    "LimitReport",
    "audit_st_limited",
    "audit_t_limited",
]
