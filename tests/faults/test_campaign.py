"""Campaign runner: probe outcomes and frontier bisection."""

import json

from tests.helpers import EchoProgram
from repro.analysis.verdict import Verdict
from repro.faults import (
    AdaptiveAdversary,
    Probe,
    RecoveryChaserStrategy,
    escalate,
    run_probe,
)
from repro.sim.clock import Schedule
from repro.sim.runner import ULRunner

SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
N, T = 5, 2
UNITS = 3


def build_probe(aggressiveness, *, guarded=True, seed=7, fail_fast=True):
    adversary = AdaptiveAdversary(RecoveryChaserStrategy(), T, seed=seed,
                                  guarded=guarded, aggressiveness=aggressiveness)
    programs = [EchoProgram() for _ in range(N)]
    verdict = Verdict(T, programs, fail_fast=fail_fast)
    runner = ULRunner(programs, adversary, SCHED,
                      s=T, seed=seed, observers=[adversary.lens, verdict])
    return Probe(runner=runner, units=UNITS, verdict=verdict)


# ------------------------------------------------------------ probe outcomes

def test_clean_probe_carries_digest_and_extras():
    def build(knob):
        probe = build_probe(knob)
        probe.extras = lambda execution: {"rounds": len(execution.records)}
        return probe

    outcome = run_probe(build, 0.2)
    assert outcome.ok is True and outcome.violation is None
    assert outcome.verdict == {"clean": True, "classification": None,
                               "within_definition_7": True, "problems": []}
    assert outcome.digest and outcome.rounds == SCHED.total_rounds(UNITS)
    assert outcome.extras == {"rounds": SCHED.total_rounds(UNITS)}
    assert json.loads(json.dumps(outcome.as_dict())) == outcome.as_dict()


def test_violating_probe_records_the_violation_with_round_attribution():
    outcome = run_probe(lambda knob: build_probe(knob, guarded=False), 1.0)
    assert outcome.ok is False
    assert outcome.violation["invariant"] == "L1-limit"
    assert outcome.violation["event_round"] == outcome.violation["detected_round"]


def test_non_fail_fast_monitors_still_decide_the_probe():
    outcome = run_probe(
        lambda knob: build_probe(knob, guarded=False, fail_fast=False), 1.0)
    assert outcome.ok is False
    assert outcome.violation["invariant"] == "L1-limit"
    assert outcome.verdict["within_definition_7"] is False


# ----------------------------------------------------------- frontier search

def test_escalate_finds_the_failure_frontier_by_bisection():
    """Unguarded chaser wants ceil(knob * n) victims per unit: with n=5 and
    t=2 the L1 frontier sits where the count first exceeds 2, i.e. in
    (0.4, 0.6].  The ladder pins [0.4 clean, 0.6 violating]; bisection
    then tightens from inside that bracket."""
    result = escalate("frontier", lambda knob: build_probe(knob, guarded=False),
                      ladder=(0.2, 0.4, 0.6, 0.8, 1.0), bisect_steps=3)
    assert not result.margin_established
    assert result.first_violation["invariant"] == "L1-limit"
    assert 0.4 <= result.last_clean < result.frontier <= 0.6
    assert result.frontier - result.last_clean <= (0.6 - 0.4) / 2
    # 0.2 and 0.4 clean, 0.6 stops the ladder walk; bisection adds more
    assert len(result.probes) > 3


def test_escalate_establishes_the_margin_on_guarded_runs():
    result = escalate("margin", lambda knob: build_probe(knob, guarded=True),
                      ladder=(0.5, 1.0))
    assert result.margin_established
    assert result.frontier is None and result.first_violation is None
    assert result.last_clean == 1.0
    assert all(probe.ok and probe.digest for probe in result.probes)
    assert json.loads(json.dumps(result.as_dict())) == result.as_dict()
