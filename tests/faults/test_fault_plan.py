"""FaultPlan construction, generation and composition semantics."""

import dataclasses
import hashlib

import pytest

from tests.helpers import EchoProgram
from repro.adversary.limits import audit_st_limited
from repro.core.uls import uls_schedule
from repro.faults import (
    CrashFault,
    DelayFault,
    DropFault,
    DuplicateFault,
    FaultInjectionAdversary,
    FaultPlan,
    MemoryCorruptionFault,
    ReorderFault,
    burst,
    mix_seed,
)
from repro.sim.clock import Schedule
from repro.sim.runner import ULRunner

SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
N, T = 5, 2


def run_plan(plan, seed=42, units=3, n=N, s=T):
    programs = [EchoProgram() for _ in range(n)]
    adversary = FaultInjectionAdversary(plan)
    runner = ULRunner(programs, adversary, SCHED, s=s, seed=seed)
    execution = runner.run(units=units)
    return execution, programs, adversary


# ------------------------------------------------------------------ generation

def test_generation_is_deterministic():
    a = FaultPlan.generate(seed=11, n=N, t=T, schedule=SCHED, units=3)
    b = FaultPlan.generate(seed=11, n=N, t=T, schedule=SCHED, units=3)
    assert a == b


def test_different_seeds_differ():
    plans = {FaultPlan.generate(seed=s, n=N, t=T, schedule=SCHED, units=3)
             for s in range(20)}
    assert len(plans) > 1


def test_generated_plans_are_nonempty_and_confined_to_normal_rounds():
    for seed in range(10):
        plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=SCHED, units=3)
        assert not plan.is_empty()
        for unit_faults in (plan.crashes, plan.drops, plan.duplications, plan.delays):
            for fault in unit_faults:
                info = SCHED.info(fault.first_round)
                assert info.phase.value == "normal"
                assert SCHED.info(fault.last_round).phase.value == "normal"
                assert SCHED.info(fault.last_round).time_unit == info.time_unit
        for fault in plan.corruptions:
            assert SCHED.info(fault.round).phase.value == "normal"


def test_generated_plans_stay_within_st_limits():
    """The headline guarantee: generate() plans are (s,t)-limited by
    construction, so the Definition 7 audit must pass on every seed."""
    for seed in range(10):
        plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=SCHED, units=3)
        execution, _, _ = run_plan(plan)
        report = audit_st_limited(execution, T)
        assert report.within_limits, (seed, report.violations)


def test_no_link_faults_generated_when_s_is_1():
    """With s=1 any single unreliable link disconnects both endpoints, so
    a safe generator must not emit link faults at all."""
    for seed in range(10):
        plan = FaultPlan.generate(seed=seed, n=N, t=1, schedule=SCHED, units=3, s=1)
        assert not plan.drops and not plan.duplications and not plan.delays


#: E13 (10 normal rounds), the E16 parity test (8), ``uls_schedule()``
#: (12), chaos-n7's 24, and two short ones: at 3 normal rounds there is
#: no room for a fault, at 4 just enough
PINNED_SCHEDULES = (
    SCHED,
    Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=8),
    uls_schedule(),
    uls_schedule(normal_rounds=24),
    Schedule(setup_rounds=1, refresh_rounds=2, normal_rounds=3),
    Schedule(setup_rounds=1, refresh_rounds=2, normal_rounds=4),
)


def chaos_episode_seed(index):
    """Episode ``index``'s seed in a chaos-n7 benchmark run at seed 0
    (``bench/workloads.episode_seed``; index -1 is the traced episode)."""
    digest = hashlib.sha256(f"chaos-n7/0/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def test_generated_plans_are_pinned_across_a_matrix():
    """Every plan over 10,080 argument sets, hashed by ``repr``: a change to
    a draw, a window, the seed derivation or the guard's admissions moves
    this hash, which was recorded before generate drew through the guard."""
    seeds = tuple(range(10)) + tuple(chaos_episode_seed(i) for i in range(-1, 5))
    digest = hashlib.sha256()
    for schedule in PINNED_SCHEDULES:
        for n in (3, 5, 7, 9, 13):
            for t in range(4):
                for s in sorted({t, 1}):
                    for units in (2, 3, 4):
                        for seed in seeds:
                            plan = FaultPlan.generate(seed, n, t, schedule, units, s=s)
                            digest.update(repr(plan).encode())
    assert digest.hexdigest() == (
        "cf506bd72475b940c873cf968b5568ee5dd7a5d8d77ea735a65dff9f4705e3e6")


# --------------------------------------------------------------- determinism

def transcript_of(plan, seed=42):
    execution, programs, _ = run_plan(plan, seed=seed)
    return (execution.global_output(), [p.received for p in programs])


def test_identical_seed_and_plan_give_identical_transcript():
    plan = FaultPlan.generate(seed=5, n=N, t=T, schedule=SCHED, units=3)
    assert transcript_of(plan) == transcript_of(plan)


def test_runner_seed_changes_transcript_but_not_fault_schedule():
    plan = FaultPlan.generate(seed=5, n=N, t=T, schedule=SCHED, units=3)
    _, _, adv_a = run_plan(plan, seed=1)
    _, _, adv_b = run_plan(plan, seed=2)
    # the fault side is driven by plan.seed only: same stats either way
    assert adv_a.stats == adv_b.stats


# --------------------------------------------------------------- composition

def test_compose_unions_all_categories():
    a = FaultPlan(seed=1, crashes=(CrashFault(0, 3, 4),),
                  drops=(DropFault(frozenset((0, 1)), 3, 4),))
    b = FaultPlan(seed=2, corruptions=(MemoryCorruptionFault(2, 5),),
                  duplications=(DuplicateFault(frozenset((1, 2)), 3, 4),),
                  delays=(DelayFault(frozenset((2, 3)), 3, 4),),
                  reorders=(ReorderFault(None, 3, 6),))
    c = a.compose(b)
    assert c.fault_count() == a.fault_count() + b.fault_count()
    assert c.seed == mix_seed("compose", 1, 2)


def test_composed_plan_composes_with_base_adversary():
    """A FaultPlan rides on top of any base adversary: both act."""
    from tests.helpers import BreakOnceAdversary

    plan = FaultPlan(seed=3, crashes=(CrashFault(1, 8, 9),))
    base = BreakOnceAdversary(victim=0, break_round=4, leave_round=6, corrupt=True)
    programs = [EchoProgram() for _ in range(N)]
    adversary = FaultInjectionAdversary(plan, base=base)
    runner = ULRunner(programs, adversary, SCHED, s=T, seed=42)
    execution = runner.run(units=2)
    broken_rounds = {i: rec.broken for i, rec in enumerate(execution.records)}
    assert 0 in broken_rounds[4] and 0 in broken_rounds[5]  # base's break-in
    assert 1 in broken_rounds[8] and 1 in broken_rounds[9]  # plan's crash
    assert programs[0].secret == "corrupted"                # base still acted


def test_fault_adversary_does_not_steal_base_break_ins():
    """If the base already holds a node, a crash on the same node must not
    release it early."""
    from tests.helpers import BreakOnceAdversary

    # base holds node 0 for rounds 4..8; plan crashes node 0 for 5..6
    plan = FaultPlan(seed=3, crashes=(CrashFault(0, 5, 6),))
    base = BreakOnceAdversary(victim=0, break_round=4, leave_round=8)
    programs = [EchoProgram() for _ in range(N)]
    adversary = FaultInjectionAdversary(plan, base=base)
    runner = ULRunner(programs, adversary, SCHED, s=T, seed=42)
    execution = runner.run(units=1)
    for rnd in range(4, 8):
        assert 0 in execution.records[rnd].broken, rnd


def test_describe_and_empty():
    assert FaultPlan(seed=0).is_empty()
    assert "empty" in FaultPlan(seed=0).describe()
    plan = burst(7, victims=[0, 1], peers=range(N), first_round=4, last_round=6)
    assert not plan.is_empty()


def test_plan_is_immutable():
    plan = FaultPlan(seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.seed = 1


# ---------------------------------------------------------------- validation

@pytest.mark.parametrize("plan, reason", [
    (FaultPlan(seed=0, crashes=(CrashFault(0, 9, 4),)),
     "last_round 4 < first_round 9"),
    (FaultPlan(seed=0, crashes=(CrashFault(0, -1, 4),)),
     "negative first_round"),
    (FaultPlan(seed=0, corruptions=(MemoryCorruptionFault(0, -3),)),
     "negative first_round"),
    (FaultPlan(seed=0, drops=(DropFault(frozenset((0, 1)), 3, 4, probability=1.5),)),
     "probability 1.5 outside"),
    (FaultPlan(seed=0, drops=(DropFault(frozenset((0, 1)), 3, 4, probability=-0.1),)),
     "outside \\[0, 1\\]"),
    (FaultPlan(seed=0, drops=(DropFault(frozenset((0,)), 3, 4),)),
     "link must join two distinct nodes"),
    (FaultPlan(seed=0, drops=(DropFault(frozenset((0, 1, 2)), 3, 4),)),
     "link must join two distinct nodes"),
    (FaultPlan(seed=0, duplications=(DuplicateFault(frozenset((0, 1)), 3, 4, copies=0),)),
     "copies must be >= 1"),
    (FaultPlan(seed=0, delays=(DelayFault(frozenset((0, 1)), 3, 4, delay=0),)),
     "delay must be >= 1"),
])
def test_validate_rejects_malformed_faults(plan, reason):
    with pytest.raises(ValueError, match=reason):
        plan.validate()


def test_validate_checks_node_range_only_with_context():
    plan = FaultPlan(seed=0, crashes=(CrashFault(99, 3, 4),),
                     reorders=(ReorderFault(99, 3, 4),))
    plan.validate()  # no n given: node ids cannot be checked
    with pytest.raises(ValueError, match=r"node 99 outside \[0, 5\)"):
        plan.validate(n=N)


def test_validate_checks_the_run_horizon_only_with_context():
    plan = FaultPlan(seed=0, crashes=(CrashFault(0, 50, 60),))
    plan.validate(n=N)  # no horizon given: windows cannot be checked
    with pytest.raises(ValueError, match="beyond the 40-round horizon"):
        plan.validate(n=N, total_rounds=SCHED.total_rounds(3))


def test_validate_returns_self_for_chaining():
    plan = FaultPlan(seed=0, crashes=(CrashFault(0, 3, 4),))
    assert plan.validate(n=N, total_rounds=SCHED.total_rounds(3)) is plan


def test_malformed_plans_fail_the_run_at_injection_time():
    """The adversary validates at begin(): a bad plan aborts the run up
    front instead of silently never firing."""
    plan = FaultPlan(seed=0, crashes=(CrashFault(N + 3, 3, 4),))
    with pytest.raises(ValueError, match="outside"):
        run_plan(plan)
