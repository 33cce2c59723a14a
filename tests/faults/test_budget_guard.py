"""StBudgetGuard: online projection onto the (s,t)-legal fault space.

The unit tests pin each admission/clamping rule; the property fuzz at the
bottom is the PR's safety contract — *no* adaptive strategy, at *any*
aggressiveness, can drive a guarded run outside Definition 7's budget
(both the instantaneous Def. 7 audit and the Def. 3 union audit must
pass on every fuzzed run).
"""

import pytest

from tests.helpers import EchoProgram
from repro.adversary.limits import audit_st_limited, audit_t_limited
from repro.analysis.monitor import RuntimeInvariantMonitor
from repro.faults import plan as plan_module
from repro.faults import (
    AdaptiveAdversary,
    FaultPlan,
    FaultRequest,
    StBudgetGuard,
    make_strategy,
    requests_to_faults,
)
from repro.sim.clock import Schedule
from repro.sim.runner import ULRunner

SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
N, T = 5, 2
FIRST_NORMAL_1 = SCHED.first_normal_round(1)
LAST_NORMAL_1 = FIRST_NORMAL_1 + SCHED.normal_rounds - 1


def guard():
    return StBudgetGuard(N, T, SCHED, s=T)


# ------------------------------------------------------------- victim budget

def test_victim_budget_caps_at_t():
    report = guard().project(1, [FaultRequest(kind="crash", victim=v) for v in range(4)])
    assert len(report.crashes) == T
    assert report.denied == {"victim-budget": 2}
    assert report.victims == frozenset({0, 1})


def test_repeat_faults_on_one_victim_cost_one_budget_slot():
    report = guard().project(1, [
        FaultRequest(kind="crash", victim=0),
        FaultRequest(kind="corrupt", victim=0),
        FaultRequest(kind="crash", victim=1),
    ])
    assert report.denied_total == 0
    assert report.victims == frozenset({0, 1})


# ------------------------------------------------------------ window clamping

def test_windows_are_clamped_into_the_recovery_margins():
    report = guard().project(1, [
        # spans the refresh phase and the unit end: both ends must clamp
        FaultRequest(kind="crash", victim=0,
                     first_round=SCHED.refresh_start(1), last_round=10**6),
        FaultRequest(kind="corrupt", victim=1, first_round=10**6),
    ])
    (crash,) = report.crashes
    assert crash.first_round == FIRST_NORMAL_1
    assert crash.last_round == LAST_NORMAL_1 - 1      # margin for recovery
    (corrupt,) = report.corruptions
    assert corrupt.round == LAST_NORMAL_1 - 1
    assert report.clamped >= 3


def test_default_windows_span_the_legal_maximum():
    report = guard().project(1, [FaultRequest(kind="drop", victim=0, peer=2)])
    (drop,) = report.drops
    assert drop.first_round == FIRST_NORMAL_1
    assert drop.last_round == LAST_NORMAL_1 - 1
    assert report.clamped == 0


def test_short_units_admit_no_faults():
    tight = Schedule(setup_rounds=1, refresh_rounds=2, normal_rounds=3)
    report = StBudgetGuard(N, T, tight, s=T).project(1, [
        FaultRequest(kind="crash", victim=0),
        FaultRequest(kind="drop", victim=1, peer=2),
    ])
    assert report.approved == 0
    assert report.denied == {"unit-too-short": 2}


# --------------------------------------------------------------- link faults

def test_link_faults_denied_when_s_is_1():
    report = StBudgetGuard(N, T, SCHED, s=1).project(
        1, [FaultRequest(kind="drop", victim=0, peer=1)])
    assert report.denied == {"s-too-small": 1}


def test_collateral_cap_is_s_minus_1_per_nonvictim():
    # both victims aim a drop at the same non-victim peer: the second
    # would give peer 4 its s-th faulted link, so it must be denied
    report = guard().project(1, [
        FaultRequest(kind="drop", victim=0, peer=4),
        FaultRequest(kind="drop", victim=1, peer=4),
    ])
    assert len(report.drops) == 1
    assert report.denied == {"collateral-budget": 1}


def test_victim_victim_links_cost_no_collateral():
    report = guard().project(1, [
        FaultRequest(kind="drop", victim=0, peer=1),
        FaultRequest(kind="drop", victim=1, peer=0),
        FaultRequest(kind="delay", victim=0, peer=1),
    ])
    assert report.denied_total == 0
    assert report.victims == frozenset({0, 1})


def test_bad_peers_are_denied():
    report = guard().project(1, [
        FaultRequest(kind="drop", victim=0),                 # no peer at all
        FaultRequest(kind="drop", victim=0, peer=0),         # self-link
        FaultRequest(kind="drop", victim=0, peer=99),        # out of range
    ])
    assert report.denied == {"bad-peer": 3}


def test_duplicate_and_delay_parameters_are_bounded():
    report = guard().project(1, [
        FaultRequest(kind="duplicate", victim=0, peer=2, copies=99),
        # ends 3 rounds before the normal phase does: room for MAX_DELAY
        FaultRequest(kind="delay", victim=1, peer=3, delay=99, probability=1.5,
                     first_round=FIRST_NORMAL_1, last_round=LAST_NORMAL_1 - 3),
    ])
    (dup,) = report.duplications
    assert dup.copies == 3
    (delay,) = report.delays
    assert delay.delay == 3
    assert delay.probability == 1.0


def test_delays_are_released_by_the_units_last_normal_round():
    """A delay lasts at most min(3, last_normal - last_round) rounds: a
    default normal-phase window ends one round before the phase does, so
    its delay is clamped to 1; a refresh-phase delay keeps all 3."""
    report = guard().project(1, [
        FaultRequest(kind="delay", victim=0, peer=2, delay=3),
        FaultRequest(kind="delay", victim=1, peer=3, delay=3, phase="refresh"),
    ])
    normal, refresh = report.delays
    assert normal.last_round == LAST_NORMAL_1 - 1 and normal.delay == 1
    assert refresh.last_round < FIRST_NORMAL_1 and refresh.delay == 3
    assert report.clamped == 1 and report.denied_total == 0


# ------------------------------------------------------------------- reorder

def test_reorders_charge_nobody_and_default_to_the_whole_phase():
    report = StBudgetGuard(N, 0, SCHED, s=1).project(1, [
        FaultRequest(kind="reorder", victim=None),
        FaultRequest(kind="reorder", victim=3, phase="refresh"),
        FaultRequest(kind="reorder", victim=None, first_round=0, last_round=10**6),
        FaultRequest(kind="reorder", victim=N),
    ])
    every, one, clamped = report.reorders
    normal = (FIRST_NORMAL_1, LAST_NORMAL_1)
    assert (every.receiver, every.first_round, every.last_round) == (None, *normal)
    start = SCHED.refresh_start(1)
    assert (one.receiver, one.first_round, one.last_round) == (
        3, start, start + SCHED.refresh_rounds - 1)
    assert (clamped.first_round, clamped.last_round) == normal
    assert report.clamped == 2
    assert report.denied == {"victim-out-of-range": 1}
    assert report.victims == frozenset()


# ---------------------------------------------------- refreshment-phase rules

def test_node_faults_never_touch_the_refresh_phase():
    report = guard().project(1, [FaultRequest(kind="crash", victim=0, phase="refresh")])
    assert report.denied == {"refresh-node-fault": 1}


def test_unit_0_has_no_refresh_phase_to_attack():
    report = guard().project(0, [
        FaultRequest(kind="drop", victim=0, peer=2, phase="refresh")])
    assert report.denied == {"no-refresh-phase": 1}


def test_refresh_drops_are_confined_to_the_refresh_window():
    report = guard().project(1, [
        FaultRequest(kind="drop", victim=0, peer=2, phase="refresh",
                     first_round=0, last_round=10**6)])
    (drop,) = report.drops
    start = SCHED.refresh_start(1)
    assert drop.first_round == start
    assert drop.last_round == start + SCHED.refresh_rounds - 1


def test_refresh_budget_charges_previous_units_victims():
    """A victim of unit u-1 is still disconnected during unit u's refresh
    phase (it recovers only at the phase's end), so refresh victims of
    unit u are charged against min(t, s) *jointly* with them."""
    g = guard()
    g.project(1, [FaultRequest(kind="crash", victim=0),
                  FaultRequest(kind="crash", victim=1)])
    report = g.project(2, [
        # a fresh refresh victim would make 3 impaired nodes mid-refresh
        FaultRequest(kind="drop", victim=2, peer=3, phase="refresh"),
        # re-starving a recovering victim adds nobody: admissible
        FaultRequest(kind="drop", victim=0, peer=3, phase="refresh"),
    ])
    assert report.denied == {"victim-budget": 1}
    assert len(report.drops) == 1
    assert report.drops[0].link == frozenset({0, 3})


def test_refresh_peers_must_not_be_recovering():
    """Faulting a recovering node's link during the refresh phase would
    make it miss its own re-admission — denied even as collateral."""
    g = guard()
    g.project(1, [FaultRequest(kind="crash", victim=0)])
    report = g.project(2, [
        FaultRequest(kind="drop", victim=1, peer=0, phase="refresh")])
    assert report.denied == {"peer-recovering": 1}


# ----------------------------------------------------------------- mechanics

def test_units_must_be_projected_in_order():
    g = guard()
    g.project(2, [])
    with pytest.raises(ValueError, match="order"):
        g.project(1, [])


def test_unknown_kinds_and_bad_victims_are_denied():
    report = guard().project(1, [
        FaultRequest(kind="nuke", victim=0),
        FaultRequest(kind="crash", victim=-1),
        FaultRequest(kind="crash", victim=N),
    ])
    assert report.denied == {"unknown-kind": 1, "victim-out-of-range": 2}


@pytest.mark.parametrize("project", [
    lambda requests: guard().project(1, requests),
    lambda requests: requests_to_faults(1, requests, SCHED),
], ids=["guard", "unguarded-twin"])
def test_unknown_phases_are_denied(project):
    """A misspelled phase is not read as the normal phase: both the guard
    and its unguarded twin deny it."""
    report = project([FaultRequest("drop", 0, 2, phase="refesh"),
                      FaultRequest("crash", 1, phase="")])
    assert report.denied == {"unknown-phase": 2}
    assert report.approved == 0 and report.victims == frozenset()


def test_zero_t_denies_everything():
    report = StBudgetGuard(N, 0, SCHED, s=2).project(
        1, [FaultRequest(kind="crash", victim=0),
            FaultRequest(kind="drop", victim=1, peer=2)])
    assert report.approved == 0
    assert report.denied_total == 2


def test_report_as_dict_is_json_ready():
    import json

    report = guard().project(1, [FaultRequest(kind="crash", victim=0)])
    data = report.as_dict()
    assert json.loads(json.dumps(data)) == data
    assert data["approved"] == 1 and data["victims"] == [0]


def test_requests_to_faults_is_the_unguarded_twin():
    requests = [FaultRequest(kind="crash", victim=v) for v in range(N)]
    report = requests_to_faults(1, requests, SCHED)
    assert len(report.crashes) == N            # nothing denied…
    assert report.denied_total == 0
    st = StBudgetGuard(N, T, SCHED, s=T).project(1, requests)
    assert len(st.crashes) == T                # …unlike the guarded path


def test_generate_draws_only_what_the_guard_admits(monkeypatch):
    """FaultPlan.generate is a sampler: the guard decides.  A guard that
    charges at most one victim per unit must make it raise."""
    class OneVictim(StBudgetGuard):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.t = 1

    for seed in range(5):
        FaultPlan.generate(seed=seed, n=N, t=T, schedule=SCHED, units=3)
    monkeypatch.setattr(plan_module, "StBudgetGuard", OneVictim)
    with pytest.raises(RuntimeError, match="victim-budget"):
        for seed in range(20):
            FaultPlan.generate(seed=seed, n=N, t=T, schedule=SCHED, units=3)


# ---------------------------------------------------------- the property fuzz

def test_guarded_adaptive_runs_never_exceed_the_budget():
    """S2: fuzz 200 seeded adaptive runs across every strategy and an
    over-budget knob range; every run must pass both post-hoc audits and
    keep the runtime monitor silent."""
    runs = 0
    for strategy_name in ("recovery-chaser", "traffic-targeter", "certificate-starver"):
        for aggressiveness in (0.7, 1.0):
            for seed in range(34):
                adversary = AdaptiveAdversary(
                    make_strategy(strategy_name), T, seed=seed,
                    aggressiveness=aggressiveness)
                monitor = RuntimeInvariantMonitor(T, fail_fast=False)
                runner = ULRunner([EchoProgram() for _ in range(N)], adversary,
                                  SCHED, s=T, seed=seed,
                                  observers=[adversary.lens, monitor])
                execution = runner.run(units=3)
                st = audit_st_limited(execution, T)
                union = audit_t_limited(execution, T)
                assert st.within_limits, (strategy_name, aggressiveness, seed,
                                          st.violations)
                assert union.within_limits, (strategy_name, aggressiveness, seed,
                                             union.violations)
                assert monitor.ok, (strategy_name, aggressiveness, seed,
                                    monitor.violations)
                runs += 1
    assert runs >= 200
