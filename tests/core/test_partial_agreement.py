"""Unit and integration tests for PARTIAL-AGREEMENT (Fig. 5)."""

import pytest

from repro.core.partial_agreement import NO_VALUE, PartialAgreementService, _Session
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


def make_service(n=5, wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, n, (n - 1) // 2, seed=3)
    program = UlsProgram(states[0], SCHEME, keys[0], wire=wire)
    return program.core.pa


def session_with_records(records):
    """records: {author: [value, ...]}"""
    session = _Session(start_round=0, my_input=NO_VALUE)
    for author, values in records.items():
        for value in values:
            bucket = session.records.setdefault(author, {})
            bucket[repr(value)] = (value, None)
    return session


def test_cheater_detection():
    service = make_service()
    session = session_with_records({0: ["a", "b"], 1: ["a"], 2: ["a"]})
    assert service._cheaters(session) == {0}


def test_step5_majority_survives():
    service = make_service()  # majority = ceil((5+1)/2) = 3
    session = session_with_records({0: ["x"], 1: ["x"], 2: ["x"], 3: ["y"]})
    session.maj_value = "x"
    session.maj_authors = frozenset({0, 1, 2})
    assert service._step5(session) == "x"


def test_step5_cheater_discovery_in_step4_drops_below_majority():
    service = make_service()
    session = session_with_records({0: ["x"], 1: ["x"], 2: ["x"]})
    session.maj_value = "x"
    session.maj_authors = frozenset({0, 1, 2})
    # step 4 reveals author 2 equivocated
    session.records[2]["other"] = ("z", None)
    assert service._step5(session) is NO_VALUE


def test_step5_without_majority_is_phi():
    service = make_service()
    session = session_with_records({0: ["x"], 1: ["y"]})
    assert service._step5(session) is NO_VALUE


def test_majority_threshold_formula():
    # ceil((n+1)/2): 5 -> 3, 6 -> 4, 7 -> 4
    assert make_service(5).majority == 3
    assert make_service(7).majority == 4


def test_duplicate_start_is_idempotent(wire):
    """Starting the same session twice must not double-send (the paper:
    PARTIAL-AGREEMENT is run only once per node per refreshment phase)."""
    from repro.sim.clock import Schedule
    from repro.sim.node import NodeContext

    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=3)
    program = UlsProgram(states[0], SCHEME, keys[0], wire=wire)
    service = program.core.pa
    sched = Schedule(1, 1, 5)
    ctx = NodeContext(0, N, sched.info(3), None, None, [])
    service.start(ctx, "dup", ("value",))
    sent_before = len(ctx.outbox)
    service.start(ctx, "dup", ("other",))
    assert len(ctx.outbox) == sent_before  # second start ignored


def test_all_nodes_agree_on_genuine_keys_end_to_end(wire):
    """Integration: in a benign refresh, every node's PA outputs for every
    target coincide and match the target's announced key."""
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=6)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    runner = ULRunner(programs, PassiveAdversary(), SCHED, s=T, seed=6)
    runner.run(units=2)
    for target in range(N):
        expected = programs[target].keystore.key_reprs[1]
        for program in programs:
            session = program.core.pa.sessions.get(("pa", 1, target))
            assert session is not None
            value = program.core.pa._step5(session)
            assert tuple(value) == tuple(expected)
