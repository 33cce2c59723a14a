"""Tests for the AL/UL execution engine."""

import pytest

from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase, Schedule
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.rom import RomViolation
from repro.sim.runner import ALRunner, ULRunner
from repro.sim.transcript import COMPROMISED, RECOVERED

from tests.helpers import (
    BreakOnceAdversary,
    EchoProgram,
    InjectingAdversary,
    InputEchoProgram,
    LinkDropAdversary,
    RomWriterProgram,
)

SCHED = Schedule(setup_rounds=1, refresh_rounds=2, normal_rounds=3)


def make_al(n=4, adversary=None, programs=None, seed=7):
    programs = programs or [EchoProgram() for _ in range(n)]
    return ALRunner(programs, adversary or PassiveAdversary(), SCHED, seed=seed)


def make_ul(n=4, adversary=None, s=1, programs=None, seed=7):
    programs = programs or [EchoProgram() for _ in range(n)]
    return ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=s, seed=seed)


def test_needs_two_nodes():
    with pytest.raises(ValueError):
        make_al(n=1, programs=[EchoProgram()])


def test_faithful_delivery_in_al():
    runner = make_al()
    execution = runner.run(units=2)
    # every node receives every broadcast of the previous round
    for node in runner.nodes:
        received_from = {sender for _, sender, _ in node.program.received}
        assert received_from == set(range(4)) - {node.node_id}
    # sent == delivered in every round
    for record in execution.records:
        delivered = sum(len(v) for v in record.delivered.values())
        assert delivered == len(record.sent)
        assert not record.unreliable_links


def test_messages_arrive_next_round():
    runner = make_al()
    runner.run(units=1)
    program = runner.nodes[0].program
    for received_round, _, payload in program.received:
        assert payload[0] == "tick"
        # counter c was sent at round c (program sends from round 0)
        assert received_round == payload[2] + 1


def test_deterministic_given_seed():
    e1 = make_al(seed=5).run(units=2)
    e2 = make_al(seed=5).run(units=2)
    assert e1.global_output() == e2.global_output()
    assert [r.sent for r in e1.records] == [r.sent for r in e2.records]


def test_different_seeds_allowed():
    # Echo programs are deterministic, so transcripts agree; this just
    # checks that distinct seeds do not crash anything.
    make_al(seed=1).run(units=1)
    make_al(seed=2).run(units=1)


def test_rom_written_in_setup_and_frozen_after():
    runner = make_al(programs=[RomWriterProgram() for _ in range(4)])
    runner.run(units=1)
    for node in runner.nodes:
        assert node.rom.frozen
        assert node.rom.read("anchor") == f"anchor-{node.node_id}"
        with pytest.raises(RomViolation):
            node.rom.write("x", 1)


class _LateRomWriter(NodeProgram):
    def step(self, ctx: NodeContext, inbox) -> None:
        if ctx.info.phase is Phase.NORMAL:
            ctx.write_rom("late", 1)


def test_rom_write_outside_setup_rejected():
    runner = make_al(programs=[_LateRomWriter() for _ in range(4)])
    with pytest.raises(PermissionError):
        runner.run(units=1)


def test_external_inputs_delivered_at_round():
    programs = [InputEchoProgram() for _ in range(4)]
    runner = make_al(programs=programs)
    runner.add_external_input(2, 3, "hello")
    execution = runner.run(units=1)
    assert ("input", 3, "hello") in execution.outputs_of(2)
    assert all(("input", 3, "hello") not in execution.outputs_of(i) for i in (0, 1, 3))


def test_break_in_exposes_and_corrupts_state():
    adversary = BreakOnceAdversary(victim=1, break_round=2, leave_round=4, corrupt=True)
    runner = make_al(adversary=adversary)
    runner.run(units=2)
    assert adversary.stolen_state == "initial-secret"
    assert runner.nodes[1].program.secret == "corrupted"


def test_broken_node_does_not_step():
    adversary = BreakOnceAdversary(victim=1, break_round=2, leave_round=4)
    runner = make_al(adversary=adversary)
    runner.run(units=2)
    victim = runner.nodes[1].program
    other = runner.nodes[0].program
    # victim skipped rounds 3 and 4 (broken during them)
    assert victim.counter == other.counter - 2


def test_al_status_log_matches_breaks():
    adversary = BreakOnceAdversary(victim=1, break_round=2, leave_round=4)
    runner = make_al(adversary=adversary)
    execution = runner.run(units=2)
    events = [(r, i, e) for r, i, e in execution.system_log if i == 1]
    assert (2, 1, COMPROMISED) in events
    assert (4, 1, RECOVERED) in events


def test_broken_in_unit_accounting():
    adversary = BreakOnceAdversary(victim=1, break_round=2, leave_round=4)
    runner = make_al(adversary=adversary)
    execution = runner.run(units=2)
    assert 1 in execution.broken_in_unit(0)


def test_ul_link_drop_marks_unreliable_and_disconnects():
    dead = {frozenset((0, 1)), frozenset((0, 2)), frozenset((0, 3))}
    runner = make_ul(adversary=LinkDropAdversary(dead), s=2)
    execution = runner.run(units=2)
    post_setup = [rec for rec in execution.records if rec.info.phase is not Phase.SETUP]
    for record in post_setup:
        assert frozenset((0, 1)) in record.unreliable_links
    # node 0 lost all its links: not 2-operational after the first unit round
    assert 0 not in post_setup[-1].operational
    # the other nodes keep a full clique among themselves (each has only one
    # unreliable link, which is < s = 2)
    assert {1, 2, 3} <= post_setup[-1].operational


def test_ul_s1_single_dead_link_disconnects_both_endpoints():
    """With s = 1 even one unreliable link makes a node non-operational
    (Def. 6: "a node is s-disconnected if it has s or more unreliable
    links") — the paper's 1-operational node has good links to ALL others."""
    dead = {frozenset((0, 1))}
    runner = make_ul(adversary=LinkDropAdversary(dead), s=1)
    execution = runner.run(units=1)
    final = execution.records[-1].operational
    assert 0 not in final
    assert 1 not in final
    assert {2, 3} <= final


def test_ul_compromised_line_for_disconnected_node():
    dead = {frozenset((0, j)) for j in (1, 2, 3)}
    runner = make_ul(adversary=LinkDropAdversary(dead), s=2)
    execution = runner.run(units=2)
    assert any(i == 0 and e == COMPROMISED for _, i, e in execution.system_log)


def test_ul_injection_reaches_inbox_and_marks_link():
    runner = make_ul(adversary=InjectingAdversary(), s=2)
    execution = runner.run(units=1)
    program = runner.nodes[0].program
    assert any(payload[0] == "forged" for _, _, payload in program.received)
    post_setup = [rec for rec in execution.records if rec.info.phase is not Phase.SETUP]
    for record in post_setup[:-1]:
        assert frozenset((0, 1)) in record.unreliable_links


def test_ul_passive_keeps_everyone_operational():
    runner = make_ul(s=1)
    execution = runner.run(units=3)
    for record in execution.records:
        assert record.operational == frozenset(range(4))
    assert execution.impaired_in_unit(1) == frozenset()


def test_execution_units_and_stats():
    runner = make_al()
    execution = runner.run(units=3)
    assert execution.units() == 3
    assert execution.messages_sent() > 0
    assert execution.messages_sent(rounds=[0]) == 12  # 4 nodes broadcast to 3
