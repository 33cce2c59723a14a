"""Tests for execution transcripts and global outputs (§2.1–2.2)."""

from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.runner import ALRunner, ULRunner
from repro.sim.transcript import COMPROMISED, RECOVERED

from tests.helpers import EchoProgram, LinkDropAdversary

SCHED = Schedule(setup_rounds=1, refresh_rounds=2, normal_rounds=3)
N = 4


def run_al(adversary=None, units=3, seed=2):
    runner = ALRunner([EchoProgram() for _ in range(N)],
                      adversary or PassiveAdversary(), SCHED, seed=seed)
    return runner.run(units=units)


def test_status_lines_alternate():
    """Per node, compromised/recovered lines strictly alternate, starting
    with compromised."""
    execution = run_al(FaultInjectionAdversary(breakins(SCHED, {0: {1}, 1: {1, 2}})))
    for node in range(N):
        events = [e for _, i, e in execution.system_log if i == node]
        for index, event in enumerate(events):
            expected = COMPROMISED if index % 2 == 0 else RECOVERED
            assert event == expected


def test_global_output_is_deterministic_and_ordered():
    e1 = run_al(seed=9)
    e2 = run_al(seed=9)
    g1, g2 = e1.global_output(), e2.global_output()
    assert g1 == g2
    # round-major ordering of the node/system lines
    rounds = [line[1] for line in g1 if line[0] in ("node", "system")]
    assert rounds == sorted(rounds)


def test_global_output_contains_system_lines():
    execution = run_al(FaultInjectionAdversary(breakins(SCHED, {1: {3}})))
    lines = execution.global_output()
    assert any(line[0] == "system" and line[2] == 3 and line[3] == COMPROMISED
               for line in lines)
    assert any(line[0] == "system" and line[2] == 3 and line[3] == RECOVERED
               for line in lines)


def test_impaired_vs_broken_distinction():
    """A UL link-victim is impaired (non-operational) but not broken."""
    dead = {frozenset((0, j)) for j in range(1, N)}
    runner = ULRunner([EchoProgram() for _ in range(N)],
                      LinkDropAdversary(dead), SCHED, s=2, seed=3)
    execution = runner.run(units=2)
    assert 0 in execution.impaired_in_unit(1)
    assert 0 not in execution.broken_in_unit(1)


def test_outputs_of_in_unit_slices_by_unit():
    execution = run_al()
    # EchoProgram emits no outputs; fabricate via unit query consistency
    for node in range(N):
        all_outputs = execution.outputs_of(node)
        by_unit = [
            entry
            for unit in range(execution.units())
            for entry in execution.outputs_of_in_unit(node, unit)
        ]
        assert sorted(map(repr, all_outputs)) == sorted(map(repr, by_unit))


def test_messages_sent_by_round_filter():
    execution = run_al(units=1)
    total = execution.messages_sent()
    per_round = sum(
        execution.messages_sent(rounds=[r]) for r in range(SCHED.total_rounds(1))
    )
    assert total == per_round


def test_record_at_and_units():
    execution = run_al(units=2)
    assert execution.units() == 2
    record = execution.record_at(0)
    assert record.info.round == 0
    assert execution.rounds_in_unit(1)[0].info.round == SCHED.refresh_start(1)
