"""Adversary framework: capabilities, power accounting and strategies.

- :mod:`repro.adversary.base` — the capability API (break-ins, rushing,
  delivery control) shared by the AL and UL models.
- :mod:`repro.adversary.connectivity` — reliable links and s-operational
  node tracking (Definitions 4–6).
- :mod:`repro.adversary.limits` — t-limited / (s,t)-limited audits
  (Definitions 3 and 7), folded through the one per-unit count,
  :class:`~repro.adversary.limits.UnitLedger`, that the runtime monitor
  also keeps.
- :mod:`repro.adversary.strategies` — concrete attack strategies used by
  the experiments (mobile break-ins, link droppers/modifiers, the §1.1
  cut-off impersonation attack, the §5.1 injection flood, replay).
"""

from repro.adversary.base import Adversary, AdversaryApi, PassiveAdversary, faithful_delivery
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
