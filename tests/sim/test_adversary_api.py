"""Tests for the adversary capability boundary (what the model allows
the adversary to do — and, as importantly, what it forbids)."""

import pytest

from repro.sim.adversary_api import Adversary, AdversaryApi
from repro.sim.clock import Schedule
from repro.sim.node import Node
from repro.sim.rom import RomViolation
from repro.sim.runner import ALRunner

from tests.helpers import EchoProgram

SCHED = Schedule(setup_rounds=1, refresh_rounds=1, normal_rounds=4)


def make_api(n=3):
    nodes = [Node(i, EchoProgram(), n) for i in range(n)]
    import random

    return nodes, AdversaryApi(nodes, SCHED.info(2), lambda: random.Random(0))


def test_send_as_requires_broken_node():
    nodes, api = make_api()
    with pytest.raises(PermissionError):
        api.send_as(0, 1, "c", "payload")
    api.break_into(0)
    api.send_as(0, 1, "c", "payload")
    assert len(api.injected) == 1


def test_send_as_validates_receiver():
    nodes, api = make_api()
    api.break_into(0)
    with pytest.raises(ValueError):
        api.send_as(0, 0, "c", "self")
    with pytest.raises(ValueError):
        api.send_as(0, 9, "c", "out-of-range")


def test_program_of_requires_broken():
    nodes, api = make_api()
    with pytest.raises(PermissionError):
        api.program_of(1)
    api.break_into(1)
    assert api.program_of(1) is nodes[1].program


def test_break_and_leave_events_recorded():
    nodes, api = make_api()
    api.break_into(2)
    api.break_into(2)  # idempotent
    api.leave(2)
    api.leave(2)  # idempotent
    assert api.break_events == [(2, "break"), (2, "leave")]
    assert not api.is_broken(2)


def test_rom_readable_but_not_writable():
    """The adversary can read ROM; a write attempt raises (the ROM
    enforces itself — there is no writable path)."""
    nodes, api = make_api()
    nodes[0].rom.write("v_cert", 42)
    nodes[0].rom.freeze()
    rom = api.rom_of(0)
    assert rom.read("v_cert") == 42
    with pytest.raises(RomViolation):
        rom.write("v_cert", 666)


def test_forge_envelope_carries_claimed_sender():
    nodes, api = make_api()
    envelope = api.forge_envelope(2, 0, "chan", "fake")
    assert envelope.sender == 2
    assert envelope.receiver == 0


def test_adversary_output_reaches_global_output():
    class Chatty(Adversary):
        def on_round(self, api, info, traffic):
            if info.round == 2:
                api.output(("observed", len(traffic)))

    runner = ALRunner([EchoProgram() for _ in range(3)], Chatty(), SCHED, seed=1)
    execution = runner.run(units=1)
    assert any(entry[0] == "observed" for entry in execution.adversary_output)
    assert any(line[0] == "adversary" for line in execution.global_output())
