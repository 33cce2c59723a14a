"""RuntimeInvariantMonitor: incremental checking, fail-fast, attribution."""

import pytest

from tests.helpers import EchoProgram
from repro.adversary.limits import audit_st_limited
from repro.analysis import (
    InvariantViolationError,
    RuntimeInvariantMonitor,
    check_emulation_invariants,
)
from repro.analysis.verdict import verdict
from repro.faults import CrashFault, FaultInjectionAdversary, FaultPlan, burst
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase, Schedule
from repro.sim.messages import Envelope
from repro.sim.node import ALERT, NodeContext, NodeProgram
from repro.sim.runner import ULRunner

SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
N, T = 5, 2


def run_monitored(programs, adversary, monitor, units=3, seed=42):
    runner = ULRunner(programs, adversary, SCHED, s=T, seed=seed,
                      observers=[monitor])
    return runner.run(units=units)


def post_hoc(execution, programs):
    """The I1-I3 violations of the run's replayed verdict, as tuples."""
    return [v.as_tuple() for v in verdict(execution, T, programs).violations]


# ------------------------------------------------------------------ clean runs

def test_clean_run_has_no_violations_and_matches_post_hoc():
    monitor = RuntimeInvariantMonitor(T, fail_fast=True)
    programs = [EchoProgram() for _ in range(N)]
    execution = run_monitored(programs, PassiveAdversary(), monitor)
    assert monitor.ok and monitor.finalized
    assert monitor.rounds_seen == len(execution.records)
    assert [v.as_tuple() for v in monitor.violations] == post_hoc(execution, programs) == []


def test_clean_faulty_run_within_limits_is_still_clean():
    for seed in range(5):
        plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=SCHED, units=3)
        monitor = RuntimeInvariantMonitor(T, fail_fast=True)
        programs = [EchoProgram() for _ in range(N)]
        execution = run_monitored(programs, FaultInjectionAdversary(plan), monitor)
        assert monitor.ok, (seed, monitor.violations)
        assert verdict(execution, T, programs).clean


# ---------------------------------------------------------- L1 fail-fast round

def test_l1_fail_fast_reports_the_exact_round():
    """t+1 simultaneous crashes break the Definition 7 budget at a known
    round; the monitor must raise *during* that round, naming it."""
    plan = FaultPlan(seed=1, crashes=tuple(
        CrashFault(node=i, first_round=6, last_round=8) for i in range(T + 1)))
    monitor = RuntimeInvariantMonitor(T, fail_fast=True)
    programs = [EchoProgram() for _ in range(N)]
    with pytest.raises(InvariantViolationError) as excinfo:
        run_monitored(programs, FaultInjectionAdversary(plan), monitor)
    violation = excinfo.value.violation
    assert violation.invariant == "L1-limit"
    assert violation.event_round == 6
    assert violation.detected_round == 6
    assert violation.details["impaired"] == [0, 1, 2]


def test_burst_plan_fails_fast_at_its_first_round():
    plan = burst(9, victims=[0, 1, 2], peers=range(N), first_round=5, last_round=9)
    monitor = RuntimeInvariantMonitor(T, fail_fast=True)
    programs = [EchoProgram() for _ in range(N)]
    with pytest.raises(InvariantViolationError) as excinfo:
        run_monitored(programs, FaultInjectionAdversary(plan), monitor)
    assert excinfo.value.violation.event_round == 5


def test_fail_fast_false_collects_everything():
    plan = FaultPlan(seed=1, crashes=tuple(
        CrashFault(node=i, first_round=6, last_round=8) for i in range(T + 1)))
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    programs = [EchoProgram() for _ in range(N)]
    run_monitored(programs, FaultInjectionAdversary(plan), monitor)
    assert not monitor.ok
    rounds = [v.event_round for v in monitor.violations]
    # broken at 6..8, then still s-disconnected until the next refresh
    # phase re-admits them (Def. 5.3) — every such round is over budget
    assert rounds[:3] == [6, 7, 8]
    assert rounds == sorted(rounds)
    assert all(v.invariant == "L1-limit" for v in monitor.violations)


# ------------------------------------------------------------------- I3 alerts

class AlwaysAlertProgram(NodeProgram):
    """Alerts at fixed rounds while staying fully operational — the
    textbook I3 violation (an ideal-model node never alerts unprovoked)."""

    def __init__(self, *alert_rounds):
        super().__init__()
        self.alert_rounds = alert_rounds

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        ctx.broadcast("noise", ctx.info.round)
        if ctx.info.round in self.alert_rounds:
            ctx.alert()


def test_i3_violation_carries_the_alert_round():
    alert_round = 7
    programs = [AlwaysAlertProgram(alert_round if i == 0 else -1) for i in range(N)]
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    execution = run_monitored(programs, PassiveAdversary(), monitor, units=2)
    i3 = [v for v in monitor.violations if v.invariant == "I3-false-alert"]
    assert len(i3) == 1
    assert i3[0].event_round == alert_round
    assert i3[0].unit == SCHED.info(alert_round).time_unit
    assert i3[0].details == (0, 0)  # (unit, node)
    # detection waits for the unit boundary ("operational throughout" is
    # not knowable earlier), which is still mid-run, not post-hoc
    assert i3[0].detected_round == SCHED.rounds_of_unit(0)[-1] + 1
    # and the post-hoc verdict agrees
    assert ("I3-false-alert", (0, 0)) in post_hoc(execution, programs)


def test_i3_alert_in_last_unit_is_caught_at_run_end():
    last_round = SCHED.total_rounds(2) - 1
    programs = [AlwaysAlertProgram(last_round if i == 1 else -1) for i in range(N)]
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    run_monitored(programs, PassiveAdversary(), monitor, units=2)
    i3 = [v for v in monitor.violations if v.invariant == "I3-false-alert"]
    assert len(i3) == 1 and i3[0].event_round == last_round


def test_broken_node_alert_is_not_a_violation():
    """An alert from a node that was broken during the unit is legitimate
    (it is not operational-throughout)."""
    alert_round = 7
    programs = [AlwaysAlertProgram(alert_round if i == 0 else -1) for i in range(N)]
    plan = FaultPlan(seed=1, crashes=(CrashFault(node=0, first_round=3,
                                                 last_round=4),))
    monitor = RuntimeInvariantMonitor(T, fail_fast=True)
    run_monitored(programs, FaultInjectionAdversary(plan), monitor, units=2)
    assert monitor.ok


# ------------------------------------------------------------------ I1 signing

class FakeSignerProgram(NodeProgram):
    """Outputs "signed" without any quorum of "asked-to-sign" — a forged
    signature appearing in the global output (the I1 event)."""

    def __init__(self, forge_round):
        super().__init__()
        self.forge_round = forge_round

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        ctx.broadcast("noise", ctx.info.round)
        if ctx.info.round == self.forge_round:
            ctx.output(("signed", "forged-msg", ctx.info.time_unit))


def test_i1_violation_attributes_the_signed_event():
    forge_round = 7
    programs = [FakeSignerProgram(forge_round if i == 0 else -1) for i in range(N)]
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    execution = run_monitored(programs, PassiveAdversary(), monitor, units=2)
    i1 = [v for v in monitor.violations if v.invariant == "I1-threshold"]
    assert len(i1) == 1
    assert i1[0].event_round == forge_round
    assert i1[0].unit == 0
    # the post-hoc verdict flags the same (message, unit)
    assert any(label == "I1-threshold" for label, _ in post_hoc(execution, programs))


class LateForger(FakeSignerProgram):
    """Reports, in a later unit, a signature on ``message`` for unit 0."""

    def __init__(self, forge_round, message="late-forgery"):
        super().__init__(forge_round)
        self.message = message

    def step(self, ctx, inbox):
        ctx.broadcast("noise", ctx.info.round)
        if ctx.info.round == self.forge_round:
            ctx.output(("signed", self.message, 0))  # claims unit 0


def test_i1_signed_event_after_its_unit_is_decided_immediately():
    """A forged "signed" for unit 0 appearing in unit 1 is decidable the
    round it appears (unit 0's data is final by then)."""
    forge_round = SCHED.first_normal_round(1) + 1
    programs = [FakeSignerProgram(-1) for _ in range(N)]
    programs[0] = LateForger(forge_round)
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    run_monitored(programs, PassiveAdversary(), monitor, units=2)
    i1 = [v for v in monitor.violations if v.invariant == "I1-threshold"]
    assert len(i1) == 1
    assert i1[0].event_round == forge_round
    assert i1[0].detected_round == forge_round  # no waiting for a boundary


def test_legitimately_requested_signature_is_not_flagged():
    """t+1 requests before the signature -> I1 holds; the monitor must not
    false-positive mid-unit while requests are still accumulating."""

    class RequesterProgram(NodeProgram):
        def __init__(self, ask_round, sign_round):
            super().__init__()
            self.ask_round = ask_round
            self.sign_round = sign_round

        def step(self, ctx, inbox):
            ctx.broadcast("noise", ctx.info.round)
            if ctx.info.round == self.ask_round:
                ctx.output(("asked-to-sign", "m", ctx.info.time_unit))
            if self.sign_round == ctx.info.round:
                ctx.output(("signed", "m", ctx.info.time_unit))

    # all nodes ask at round 5 and all report signed at round 8 (so I2
    # holds too); no I1 may fire even though the quorum was still
    # accumulating when the unit began
    programs = [RequesterProgram(5, 8) for i in range(N)]
    monitor = RuntimeInvariantMonitor(T, fail_fast=True)
    run_monitored(programs, PassiveAdversary(), monitor, units=2)
    i1 = [v for v in monitor.violations if v.invariant == "I1-threshold"]
    assert i1 == []


# ----------------------------------------------------------------- I2 liveness

class AskOnlyProgram(NodeProgram):
    """Is asked to sign at round 5 and never reports a signature."""

    def step(self, ctx, inbox):
        ctx.broadcast("noise", ctx.info.round)
        if ctx.info.round == 5:
            ctx.output(("asked-to-sign", "m", ctx.info.time_unit))


def test_i2_violation_detected_with_one_unit_grace():
    """All n nodes ask, nobody signs: I2 breaks.  Detection must wait one
    full unit (signatures may legitimately complete in u+1) and then fire."""
    programs = [AskOnlyProgram() for _ in range(N)]
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    execution = run_monitored(programs, PassiveAdversary(), monitor, units=3)
    i2 = [v for v in monitor.violations if v.invariant == "I2-liveness"]
    assert len(i2) == 1
    assert i2[0].unit == 0
    assert i2[0].details[1] == list(range(N))  # everyone is missing
    # decided when unit 2 started, not at run end
    assert i2[0].detected_round == SCHED.rounds_of_unit(2)[0]
    assert any(label == "I2-liveness" for label, _ in post_hoc(execution, programs))


# ------------------------------------------------------------ degraded events

def test_degraded_events_are_collected_not_flagged():
    """Degradation is the protocol surviving a fault, not a violation
    (the SLO observer is what measures degraded events)."""

    class DegradingProgram(NodeProgram):
        def step(self, ctx, inbox):
            ctx.broadcast("noise", ctx.info.round)
            if ctx.info.round == 6:
                ctx.output(("degraded", {"node": ctx.node_id, "unit": 0,
                                         "round": 6, "reason": "test"}))

    programs = [DegradingProgram() for _ in range(N)]
    monitor = RuntimeInvariantMonitor(T, fail_fast=True)
    run_monitored(programs, PassiveAdversary(), monitor, units=2)
    assert monitor.ok


# ------------------------------------------------ live and replayed agree

LATE_ROUND = SCHED.first_normal_round(1) + 1

VIOLATING_RUNS = {
    # scenario -> (programs, adversary, units)
    "forged-signed": lambda: (
        [FakeSignerProgram(7 if i == 0 else -1) for i in range(N)], PassiveAdversary(), 2),
    "late-signed": lambda: (
        [LateForger(LATE_ROUND if i == 0 else -1) for i in range(N)], PassiveAdversary(), 2),
    "unprovoked-alert": lambda: (
        [AlwaysAlertProgram(7 if i == 0 else -1) for i in range(N)], PassiveAdversary(), 2),
    # one I3 violation per alerting node and unit, however often it alerts
    "repeated-alert": lambda: (
        [AlwaysAlertProgram(*((7, 8) if i == 0 else ())) for i in range(N)],
        PassiveAdversary(), 2),
    "ask-only": lambda: ([AskOnlyProgram() for _ in range(N)], PassiveAdversary(), 3),
    "over-budget-crash": lambda: (
        [EchoProgram() for _ in range(N)],
        FaultInjectionAdversary(FaultPlan(seed=1, crashes=tuple(
            CrashFault(node=i, first_round=6, last_round=8) for i in range(T + 1)))),
        3),
}


@pytest.mark.parametrize("scenario", sorted(VIOLATING_RUNS))
def test_live_and_replayed_results_agree_on_violating_runs(scenario):
    """The post-hoc verdict and the bench gate's I1-I3 check replay the
    live monitor: the I1-I3 tuples are the same list, and L1 fires in
    exactly the units the verdict and the audit flag."""
    programs, adversary, units = VIOLATING_RUNS[scenario]()
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    execution = run_monitored(programs, adversary, monitor, units=units)
    assert not monitor.ok
    live = [v.as_tuple() for v in monitor.violations if v.invariant != "L1-limit"]
    assert live == post_hoc(execution, programs)
    assert live == check_emulation_invariants(execution, T).violations
    l1_units = {v.unit for v in monitor.violations if v.invariant == "L1-limit"}
    assert l1_units == set(verdict(execution, T, programs).limit.violations)
    assert l1_units == set(audit_st_limited(execution, T).violations)


def test_two_signers_of_one_unrequested_message_are_one_i1_violation():
    """Two nodes report the same unrequested signature: one I1 violation
    naming both, live and post hoc."""
    programs = [FakeSignerProgram(7 if i < 2 else -1) for i in range(N)]
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    execution = run_monitored(programs, PassiveAdversary(), monitor, units=2)
    expected = [("I1-threshold", (("forged-msg", 0), [0, 1], 0))]
    assert [v.as_tuple() for v in monitor.violations] == expected
    assert post_hoc(execution, programs) == expected


def test_a_later_signer_joins_the_open_i1_violation():
    """A third node reports the same signature late, in unit 1: the
    violation decided at the unit boundary now names it too."""
    programs = [FakeSignerProgram(7 if i < 2 else -1) for i in range(N)]
    programs[2] = LateForger(LATE_ROUND, message="forged-msg")
    monitor = RuntimeInvariantMonitor(T, fail_fast=False)
    execution = run_monitored(programs, PassiveAdversary(), monitor, units=2)
    expected = [("I1-threshold", (("forged-msg", 0), [0, 1, 2], 0))]
    assert [v.as_tuple() for v in monitor.violations] == expected
    (violation,) = monitor.violations
    assert violation.event_round == 7
    assert violation.detected_round == SCHED.rounds_of_unit(1)[0]
    assert post_hoc(execution, programs) == expected
