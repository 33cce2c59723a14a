"""Tests for limit audits (Defs. 3, 7), mobile break-in and link-fault
plans, and the attack strategies."""

from dataclasses import replace

from repro.adversary.limits import audit_st_limited, audit_t_limited
from repro.adversary.strategies import InjectionFloodAdversary, ReplayAdversary
from repro.faults import DropFault, FaultInjectionAdversary, FaultPlan, breakins
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.clock import Schedule
from repro.sim.runner import ALRunner, ULRunner

from tests.helpers import EchoProgram

SCHED = Schedule(setup_rounds=1, refresh_rounds=2, normal_rounds=3)
N = 5


def run_ul(adversary, units=3, s=2, seed=11):
    runner = ULRunner([EchoProgram() for _ in range(N)], adversary, SCHED, s=s, seed=seed)
    return runner.run(units=units), runner


def run_al(adversary, units=3, seed=11):
    runner = ALRunner([EchoProgram() for _ in range(N)], adversary, SCHED, seed=seed)
    return runner.run(units=units), runner


def test_passive_is_zero_limited():
    execution, _ = run_ul(PassiveAdversary())
    report = audit_st_limited(execution, 0)
    assert report.within_limits
    assert report.worst_unit_size == 0


def test_mobile_breakin_plan_respected_and_audited():
    plan = breakins(SCHED, {1: {0, 1}, 2: {2, 3}})
    execution, _ = run_al(FaultInjectionAdversary(plan))
    assert execution.broken_in_unit(1) == frozenset({0, 1})
    assert execution.broken_in_unit(2) == frozenset({2, 3})
    assert audit_t_limited(execution, 2).within_limits
    report = audit_t_limited(execution, 1)
    assert not report.within_limits
    assert set(report.violations) == {1, 2}


def test_mobile_breakin_avoids_refresh_by_default():
    execution, _ = run_al(FaultInjectionAdversary(breakins(SCHED, {1: {0}})))
    refresh_rounds = [
        rec for rec in execution.rounds_in_unit(1) if rec.info.phase.value == "refresh"
    ]
    for rec in refresh_rounds:
        assert 0 not in rec.broken
    normal_rounds = [
        rec for rec in execution.rounds_in_unit(1) if rec.info.phase.value == "normal"
    ]
    # broken throughout the normal phase except its last round (the victim
    # is released one round early so it can take part in the next refresh)
    assert all(0 in rec.broken for rec in normal_rounds[:-1])
    assert 0 not in normal_rounds[-1].broken


def test_mobile_breakin_steals_state():
    stolen = []
    plan = breakins(SCHED, {1: {2}},
                    mutator=lambda program, rng: stolen.append(program.secret))
    run_al(FaultInjectionAdversary(plan))
    assert stolen == ["initial-secret"]


def test_mobile_breakin_corrupts_state():
    def corruptor(program, rng):
        program.secret = "overwritten"

    plan = breakins(SCHED, {1: {2}}, mutator=corruptor)
    _, runner = run_al(FaultInjectionAdversary(plan))
    assert runner.nodes[2].program.secret == "overwritten"


def test_link_attack_drop_schedule():
    fault = DropFault(link=frozenset({0, 1}), first_round=1, last_round=3)
    execution, runner = run_ul(FaultInjectionAdversary(FaultPlan(drops=(fault,))))
    program = runner.nodes[0].program
    # nothing from node 1 delivered for sends of rounds 1..3
    gaps = [rnd for rnd, sender, _ in program.received if sender == 1]
    assert set(gaps).isdisjoint({2, 3, 4})
    assert 1 in {r for r, s, _ in program.received if s == 1} or 5 in gaps or 6 in gaps


class LinkTamperAdversary(Adversary):
    """Rewrites every payload crossing one link."""

    def __init__(self, link):
        self.link = link

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        for inbox in plan.values():
            for index, envelope in enumerate(inbox):
                if frozenset((envelope.sender, envelope.receiver)) == self.link:
                    inbox[index] = envelope.with_payload(("tampered",))
        return plan


def test_link_attack_transform():
    _, runner = run_ul(LinkTamperAdversary(frozenset({0, 1})))
    # round-0 (set-up) traffic is delivered before the adversary activates;
    # everything sent from round 1 on is tampered
    received = [p for r, s, p in runner.nodes[0].program.received if s == 1 and r >= 2]
    assert all(p == ("tampered",) for p in received)
    assert received  # something did arrive


def test_injection_flood_counts_and_limits():
    adversary = InjectionFloodAdversary(
        payload_factory=lambda claimed, receiver, rng: ("bogus", claimed),
        channel="echo",
        flood_factor=2,
    )
    execution, _ = run_ul(adversary, units=3)
    # floods at the first refresh round of units 1 and 2
    assert adversary.injected_count == 2 * 2 * N * (N - 1)
    # injection makes every link unreliable in those rounds, so everyone is
    # disconnected there: the adversary is NOT (t,t)-limited for small t...
    assert not audit_st_limited(execution, 2).within_limits
    # ...but it broke zero nodes
    assert audit_t_limited(execution, 0).within_limits


def test_replay_adversary_redelivers():
    adversary = ReplayAdversary(delay=2)
    _, runner = run_ul(adversary, units=2)
    assert adversary.replayed_count > 0
    program = runner.nodes[0].program
    payloads = [(r, p) for r, s, p in program.received if s == 1]
    # each (sender, counter) payload appears twice: original + replay
    from collections import Counter

    counts = Counter(p for _, p in payloads)
    assert any(c >= 2 for c in counts.values())


def test_composed_adversary_runs_all():
    drop = DropFault(link=frozenset({0, 1}), first_round=1, last_round=99)
    plan = replace(breakins(SCHED, {1: {4}}), drops=(drop,))
    execution, runner = run_ul(FaultInjectionAdversary(plan))
    assert 4 in execution.broken_in_unit(1)
    received_from_1 = [
        p for r, s, p in runner.nodes[0].program.received if s == 1 and r >= 2
    ]
    assert not received_from_1
