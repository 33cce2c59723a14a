"""Chaos fault-injection plane: declarative fault schedules + executor.

See :mod:`repro.faults.plan` for the primitives and the safety argument,
:mod:`repro.faults.inject` for execution semantics,
:mod:`repro.faults.budget` + :mod:`repro.faults.adaptive` for
traffic-reactive adversaries under online budget enforcement, and
:mod:`repro.faults.campaign` for escalation / frontier-search campaigns.
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
from repro.faults.budget import (
    FaultRequest,
    ProjectionReport,
    StBudgetGuard,
    requests_to_faults,
)
from repro.faults.campaign import (
    DEFAULT_LADDER,
    CampaignResult,
    CampaignState,
    CampaignTimeout,
    Probe,
    ProbeOutcome,
    WallClockBudget,
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
    MemoryCorruptionFault,
    ReorderFault,
    breakins,
    burst,
    default_corruptor,
    mix_seed,
)

__all__ = [
    "AdaptiveAdversary",
    "AdaptiveStrategy",
    "CampaignResult",
    "CampaignState",
    "CampaignTimeout",
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
    "WallClockBudget",
    "breakins",
    "burst",
    "default_corruptor",
    "escalate",
    "make_strategy",
    "mix_seed",
    "requests_to_faults",
    "run_probe",
]
