"""Chaos fault-injection plane: declarative fault schedules + executor.

See :mod:`repro.faults.plan` for the primitives, the one rule book of
the legal fault space (:class:`StBudgetGuard`) and the plan sampler
that draws through it, :mod:`repro.faults.inject` for execution
semantics, :mod:`repro.faults.adaptive` for traffic-reactive
adversaries, and :mod:`repro.faults.campaign` for escalation /
frontier-search campaigns.
"""

from repro.faults.adaptive import (
    STRATEGIES,
    AdaptiveAdversary,
    AdaptiveStrategy,
    CertificateStarverStrategy,
    ExecutionLens,
    RecoveryChaserStrategy,
    StrategyContext,
    TrafficTargeterStrategy,
    make_strategy,
)
from repro.faults.campaign import (
    DEFAULT_LADDER,
    CampaignResult,
    Probe,
    ProbeOutcome,
    escalate,
    run_probe,
)
from repro.faults.inject import FaultInjectionAdversary
from repro.faults.plan import (
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    FaultRequest,
    MemoryCorruptionFault,
    ProjectionReport,
    ReorderFault,
    StBudgetGuard,
    breakins,
    burst,
    default_corruptor,
    mix_seed,
    requests_to_faults,
)

__all__ = [
    "AdaptiveAdversary",
    "AdaptiveStrategy",
    "CampaignResult",
    "CertificateStarverStrategy",
    "CrashFault",
    "DEFAULT_LADDER",
    "DelayFault",
    "DropFault",
    "DuplicateFault",
    "ExecutionLens",
    "FaultInjectionAdversary",
    "FaultPlan",
    "FaultRequest",
    "MemoryCorruptionFault",
    "Probe",
    "ProbeOutcome",
    "ProjectionReport",
    "RecoveryChaserStrategy",
    "ReorderFault",
    "STRATEGIES",
    "StBudgetGuard",
    "StrategyContext",
    "TrafficTargeterStrategy",
    "breakins",
    "burst",
    "default_corruptor",
    "escalate",
    "make_strategy",
    "mix_seed",
    "requests_to_faults",
    "run_probe",
]
