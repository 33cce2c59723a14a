"""End-to-end tests of the AL-model PDS: signing, refresh, recovery.

These exercise the full stack — Theorem 13's instantiation — under the
AL runner with mobile break-in adversaries.
"""

import random

import pytest

from repro.adversary.strategies import BreakinPlan, MobileBreakInAdversary
from repro.crypto.group import named_group
from repro.crypto.shamir import Share
from repro.pds.harness import PdsNodeProgram, required_refresh_rounds
from repro.pds.keys import deal_initial_states
from repro.pds.threshold_schnorr import verify_pds_signature
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.node import ALERT
from repro.sim.runner import ALRunner

GROUP = named_group("toy64")
SCHED = Schedule(setup_rounds=1, refresh_rounds=required_refresh_rounds(1), normal_rounds=8)
N, T = 5, 2


def build(seed=1, wire="paper"):
    public, states = deal_initial_states(GROUP, n=N, threshold=T, rng=random.Random(seed))
    programs = [PdsNodeProgram(state, wire=wire) for state in states]
    return public, programs


def run(programs, adversary=None, units=2, sign_plan=None, seed=9):
    runner = ALRunner(programs, adversary or PassiveAdversary(), SCHED, seed=seed)
    for node_id, round_number, message in sign_plan or []:
        runner.add_external_input(node_id, round_number, ("sign", message))
    return runner.run(units=units)


def test_quorum_signs_and_verifies(wire):
    public, programs = build(wire=wire)
    r = SCHED.first_normal_round(0)
    sign_plan = [(i, r, "hello") for i in range(T + 1)]
    execution = run(programs, sign_plan=sign_plan, units=1)
    for i in range(T + 1):
        assert ("asked-to-sign", "hello", 0) in execution.outputs_of(i)
        assert ("signed", "hello", 0) in execution.outputs_of(i)
    signature = programs[0].signatures[("hello", 0)]
    assert verify_pds_signature(public, "hello", 0, signature)
    # the signature does not verify for other messages/units
    assert not verify_pds_signature(public, "hello", 1, signature)
    assert not verify_pds_signature(public, "other", 0, signature)


def test_fewer_than_t_plus_1_requests_never_sign(wire):
    _, programs = build(wire=wire)
    r = SCHED.first_normal_round(0)
    sign_plan = [(i, r, "under") for i in range(T)]  # only t requests
    execution = run(programs, sign_plan=sign_plan, units=1)
    for i in range(N):
        assert ("signed", "under", 0) not in execution.outputs_of(i)


def test_all_nodes_signing_works(wire):
    public, programs = build(wire=wire)
    r = SCHED.first_normal_round(0)
    sign_plan = [(i, r, "full") for i in range(N)]
    execution = run(programs, sign_plan=sign_plan, units=1)
    for i in range(N):
        assert ("signed", "full", 0) in execution.outputs_of(i)


def test_signing_works_after_refresh(wire):
    public, programs = build(wire=wire)
    r1 = SCHED.first_normal_round(1)
    sign_plan = [(i, r1, "post-refresh") for i in range(N)]
    execution = run(programs, sign_plan=sign_plan, units=2)
    for i in range(N):
        assert ("signed", "post-refresh", 1) in execution.outputs_of(i)
    signature = programs[0].signatures[("post-refresh", 1)]
    assert verify_pds_signature(public, "post-refresh", 1, signature)


def test_refresh_changes_shares_but_not_public_key(wire):
    public, programs = build(wire=wire)
    before = [p.state.share.value for p in programs]
    pk_before = [p.state.public.public_key for p in programs]
    execution = run(programs, units=2)
    after = [p.state.share.value for p in programs]
    assert all(p.refresh_outcomes == [("ok", 1)] for p in programs)
    assert before != after  # all shares re-randomized
    assert [p.state.public.public_key for p in programs] == pk_before
    for p in programs:
        assert p.state.share_is_valid()
    # commitments stay consistent across nodes
    commitments = {tuple(p.state.key_commitment.elements) for p in programs}
    assert len(commitments) == 1


def test_refresh_erases_old_shares(wire):
    _, programs = build(wire=wire)
    run(programs, units=3)
    for p in programs:
        units = [u for u, kind in p.state.erasure_log if kind == "refresh"]
        assert units == [1, 2]


def test_multiple_messages_same_unit(wire):
    public, programs = build(wire=wire)
    r = SCHED.first_normal_round(0)
    sign_plan = [(i, r, f"msg-{k}") for i in range(N) for k in range(3)]
    execution = run(programs, sign_plan=sign_plan, units=1)
    for k in range(3):
        assert ("signed", f"msg-{k}", 0) in execution.outputs_of(0)
        assert verify_pds_signature(public, f"msg-{k}", 0, programs[0].signatures[(f"msg-{k}", 0)])


def test_signing_tolerates_t_broken_nodes(wire):
    """With t nodes broken (silent), the remaining n-t >= t+1 sign fine."""
    public, programs = build(wire=wire)
    plan = BreakinPlan(victims={0: frozenset({3, 4})}, during_refresh=True)
    adversary = MobileBreakInAdversary(plan)
    r = SCHED.first_normal_round(0)
    sign_plan = [(i, r, "resilient") for i in range(N)]
    execution = run(programs, adversary=adversary, sign_plan=sign_plan, units=1)
    for i in range(3):
        assert ("signed", "resilient", 0) in execution.outputs_of(i)
    signature = programs[0].signatures[("resilient", 0)]
    assert verify_pds_signature(public, "resilient", 0, signature)


def test_share_recovery_after_memory_corruption(wire):
    """A node whose share was corrupted during a break-in recovers it in
    the next refreshment phase (Herzberg recovery) and can sign again."""
    public, programs = build(wire=wire)

    def corrupt(program, rng):
        state = program.state
        state.share = Share(x=state.share.x, value=rng.randrange(GROUP.q))
        # also corrupt its commitment copy: sync must fix this too
        state.key_commitment = programs[(program.node_id + 1) % N].state.key_commitment

    plan = BreakinPlan(victims={0: frozenset({2})}, corrupt_memory=True)
    adversary = MobileBreakInAdversary(plan, corruptor=corrupt)
    r1 = SCHED.first_normal_round(1)
    sign_plan = [(i, r1, "after-recovery") for i in range(N)]
    execution = run(programs, adversary=adversary, sign_plan=sign_plan, units=2)
    assert programs[2].state.share_is_valid()
    assert programs[2].refresh_outcomes == [("ok", 1)]
    assert ("signed", "after-recovery", 1) in execution.outputs_of(2)
    # no alert: recovery succeeded silently
    assert ALERT not in execution.outputs_of(2)


def test_share_recovery_after_share_deletion(wire):
    public, programs = build(wire=wire)

    def corrupt(program, rng):
        program.state.share = None

    plan = BreakinPlan(victims={0: frozenset({1})}, corrupt_memory=True)
    adversary = MobileBreakInAdversary(plan, corruptor=corrupt)
    execution = run(programs, adversary=adversary, units=2)
    assert programs[1].state.share_is_valid()
    assert programs[1].refresh_outcomes == [("ok", 1)]


def test_stolen_share_useless_after_refresh(wire):
    """The proactive property itself: a share stolen in unit 0 is
    statistically independent of the unit-1 sharing — the stolen share
    does not lie on the new polynomial."""
    public, programs = build(wire=wire)
    plan = BreakinPlan(victims={0: frozenset({0, 1})})
    adversary = MobileBreakInAdversary(
        plan, state_snapshot=lambda program: program.state.share
    )
    run(programs, adversary=adversary, units=2)
    stolen = adversary.stolen[(0, 0)]
    new_commitment = programs[2].state.key_commitment
    assert not new_commitment.verify_share(GROUP, stolen)
