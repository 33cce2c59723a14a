"""The minimum viable configuration: n = 3, t = 1 (n = 2t + 1)."""

from repro.core.uls import UlsProgram, build_uls_states, uls_schedule, verify_user_signature
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 3, 1
SCHED = uls_schedule()


def build_and_run(adversary=None, units=2, seed=6, sign_plan=None, wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=T, seed=seed)
    for node_id, round_number, message in sign_plan or []:
        runner.add_external_input(node_id, round_number, ("sign", message))
    execution = runner.run(units=units)
    return public, programs, execution


def test_minimum_network_refreshes_and_signs(wire):
    r1 = SCHED.first_normal_round(1)
    public, programs, execution = build_and_run(
        sign_plan=[(i, r1, "tiny") for i in range(N)], wire=wire
    )
    for program in programs:
        assert program.keystore.history == [(1, "ok")]
        assert program.state.share_is_valid()
        assert program.core.alert_units == []
    signature = programs[0].signatures[("tiny", 1)]
    assert verify_user_signature(public, "tiny", 1, signature)


def test_minimum_network_survives_single_breakin(wire):
    public, programs, execution = build_and_run(
        adversary=FaultInjectionAdversary(breakins(SCHED, {0: {2}})), wire=wire
    )
    assert programs[2].keystore.history == [(1, "ok")]
    assert programs[2].state.share_is_valid()


def test_two_requests_needed_at_t1(wire):
    r0 = SCHED.first_normal_round(0)
    public, programs, execution = build_and_run(
        sign_plan=[(0, r0, "solo")],  # only one request: below t+1 = 2
        wire=wire,
    )
    for i in range(N):
        assert ("signed", "solo", 0) not in execution.outputs_of(i)
