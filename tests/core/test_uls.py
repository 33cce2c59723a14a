"""End-to-end tests of the ULS scheme (§4.2, Theorem 14)."""

import pytest

from repro.adversary.limits import audit_st_limited
from repro.adversary.strategies import CutOffAdversary, InjectionFloodAdversary, ReplayAdversary
from repro.adversary.impersonation import UlsImpersonator
from repro.core.uls import (
    UlsProgram,
    build_uls_states,
    uls_schedule,
    verify_user_signature,
)
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import DropFault, FaultInjectionAdversary, FaultPlan, breakins
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.node import ALERT
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


def build(seed=7, wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    return public, programs


def run(programs, adversary=None, units=3, sign_plan=None, seed=3):
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=T, seed=seed)
    for node_id, round_number, message in sign_plan or []:
        runner.add_external_input(node_id, round_number, ("sign", message))
    execution = runner.run(units=units)
    return execution, runner


# ---------------------------------------------------------------- benign runs

def test_benign_run_no_alerts_and_stable_refresh(wire):
    public, programs = build(wire=wire)
    execution, _ = run(programs, units=3)
    for program in programs:
        assert program.core.alert_units == []
        assert program.keystore.history == [(1, "ok"), (2, "ok")]
        assert program.state.share_is_valid()
    for i in range(N):
        assert ALERT not in execution.outputs_of(i)


def test_signing_in_every_unit(wire):
    public, programs = build(wire=wire)
    sign_plan = []
    for unit in range(3):
        r = SCHED.first_normal_round(unit)
        sign_plan += [(i, r, f"m{unit}") for i in range(N)]
    execution, _ = run(programs, units=3, sign_plan=sign_plan)
    for unit in range(3):
        for i in range(N):
            assert ("signed", f"m{unit}", unit) in execution.outputs_of(i)
        signature = programs[0].signatures[(f"m{unit}", unit)]
        assert verify_user_signature(public, f"m{unit}", unit, signature)


def test_under_threshold_requests_do_not_sign(wire):
    public, programs = build(wire=wire)
    r = SCHED.first_normal_round(0)
    sign_plan = [(i, r, "under") for i in range(T)]
    execution, _ = run(programs, units=1, sign_plan=sign_plan)
    for i in range(N):
        assert ("signed", "under", 0) not in execution.outputs_of(i)


def test_old_certificates_die_with_their_unit(wire):
    """A unit-0 local key + certificate is useless in unit 1: VER-CERT's
    unit check rejects it (exercised inside the protocol by running two
    units; here we probe directly)."""
    from repro.core.certify import certify, ver_cert

    public, programs = build(wire=wire)
    run(programs, units=2)
    stale_keys_program = programs[0]
    # fabricate a message with current keys but claim the wrong unit: the
    # keystore's unit is now 1, so a unit-0-style check must fail
    keys = stale_keys_program.keystore.current
    msg = certify(SCHEME, keys, ("x",), 0, 1, 50)
    assert ver_cert(SCHEME, public, 1, 0, expected_unit=0,
                    expected_round=50, raw=tuple(msg)) is None


# ------------------------------------------------------------- break-ins

def test_mobile_breakins_with_full_recovery(wire):
    """t nodes broken per unit, rotating; everyone recovers at the next
    refresh, nobody alerts, signing keeps working (Theorem 14's normal
    regime)."""
    public, programs = build(wire=wire)
    adversary = FaultInjectionAdversary(breakins(SCHED, {0: {0, 1}, 1: {2, 3}}))
    r2 = SCHED.first_normal_round(2)
    sign_plan = [(i, r2, "late") for i in range(N)]
    execution, _ = run(programs, adversary=adversary, units=3, sign_plan=sign_plan)
    report = audit_st_limited(execution, T)
    assert report.within_limits
    for program in programs:
        assert program.state.share_is_valid()
        assert program.keystore.history[-1] == (2, "ok")
    for i in range(N):
        assert ("signed", "late", 2) in execution.outputs_of(i)
        assert ALERT not in execution.outputs_of(i)


def test_stolen_state_is_useless_after_refresh(wire):
    """The proactive property end-to-end: state stolen in unit 0 (share +
    local keys) neither forges signatures nor authenticates messages in
    unit 1+."""
    public, programs = build(wire=wire)
    stolen = []

    def snapshot(program, rng):
        stolen.append((program.state.share, program.keystore.current))

    adversary = FaultInjectionAdversary(breakins(SCHED, {0: {4}}, mutator=snapshot))
    execution, _ = run(programs, adversary=adversary, units=2)
    [(share, local_keys)] = stolen
    # the stolen share does not lie on the refreshed polynomial
    assert not programs[0].state.key_commitment.verify_share(GROUP, share)
    # the stolen local keys' certificate is for unit 0; VER-CERT in unit 1
    # rejects it
    from repro.core.certify import certify, ver_cert

    msg = certify(SCHEME, local_keys, ("late-forgery",), 4, 0, 99)
    assert msg is not None
    assert ver_cert(SCHEME, public, 0, 4, expected_unit=1,
                    expected_round=99, raw=tuple(msg)) is None


def test_memory_corruption_recovers_via_refresh(wire):
    from repro.crypto.shamir import Share

    public, programs = build(wire=wire)

    def corrupt(program, rng):
        state = program.state
        state.share = Share(x=state.share_index, value=rng.randrange(GROUP.q))

    adversary = FaultInjectionAdversary(breakins(SCHED, {0: {1}}, mutator=corrupt))
    execution, _ = run(programs, adversary=adversary, units=2)
    assert programs[1].state.share_is_valid()
    assert programs[1].keystore.history == [(1, "ok")]
    assert ALERT not in execution.outputs_of(1)


# ------------------------------------------------------------- active attacks

def test_cutoff_attack_alerts_and_does_not_forge(wire):
    """The §1.1 attack against ULS: the cut-off victim alerts in every
    affected unit (Prop. 31) and the adversary's stale keys produce no
    accepted messages at honest nodes."""
    public, programs = build(wire=wire)
    impersonator = UlsImpersonator(victim=4)
    adversary = CutOffAdversary(victim=4, break_unit=1, impersonator=impersonator)
    execution, runner = run(programs, adversary=adversary, units=3)
    # the victim failed to refresh its keys in unit 2 and alerted
    assert 2 in programs[4].core.alert_units
    assert execution.alerts_in_unit(4, 2) >= 1
    # the impersonator did try
    assert impersonator.attempts
    # and no honest node accepted anything from the victim in unit 2+
    for i in range(4):
        accepted_from_victim = [
            (rnd, src, body)
            for rnd, src, body in programs[i].core.transport.accepted_log
            if src == 4 and rnd >= SCHED.refresh_start(2)
        ]
        assert accepted_from_victim == []


def test_injection_flood_blocks_certification_but_alerts(wire):
    """§5.1: an almost-(t,t)-limited injector floods fake public keys at
    the start of every refreshment phase.  Emulation may fail (nodes can
    lose their certificates) but every affected node alerts."""

    def fake_key(claimed, receiver, rng):
        fake = SCHEME.generate(rng).verify_key
        return ("newkey", None, SCHEME.key_repr(fake))

    public, programs = build(wire=wire)
    adversary = InjectionFloodAdversary(
        payload_factory=lambda c, r, rng: ("newkey", 1, SCHEME.key_repr(SCHEME.generate(rng).verify_key)),
        channel="newkey",
        flood_factor=3,
    )
    execution, _ = run(programs, adversary=adversary, units=2)
    assert adversary.injected_count > 0
    for program in programs:
        status = dict(program.keystore.history)
        if status.get(1) == "failed":
            assert 1 in program.core.alert_units


def test_replay_is_rejected(wire):
    """Replayed certified traffic fails VER-CERT's (u, w) binding: the run
    completes exactly as a benign one."""
    public, programs = build(wire=wire)
    adversary = ReplayAdversary(delay=3, channels={"disperse"})
    execution, _ = run(programs, adversary=adversary, units=2)
    assert adversary.replayed_count > 0
    for program in programs:
        assert program.core.alert_units == []
        assert program.keystore.history == [(1, "ok")]


def test_link_faults_within_limits_are_tolerated(wire):
    """Killing all links of one node (t=2 allows it) during a whole unit:
    the victim misses its certificate and alerts; everyone else proceeds;
    the victim recovers at the following refresh once links return."""
    public, programs = build(wire=wire)
    unit1 = SCHED.rounds_of_unit(1)
    drops = tuple(
        DropFault(link=frozenset({0, j}), first_round=unit1[0], last_round=unit1[-1])
        for j in range(1, N)
    )
    adversary = FaultInjectionAdversary(FaultPlan(drops=drops))
    execution, _ = run(programs, adversary=adversary, units=3)
    assert dict(programs[0].keystore.history)[1] == "failed"
    assert 1 in programs[0].core.alert_units
    # recovery in unit 2
    assert dict(programs[0].keystore.history)[2] == "ok"
    assert programs[0].state.share_is_valid()
    for i in range(1, N):
        assert dict(programs[i].keystore.history) == {1: "ok", 2: "ok"}
