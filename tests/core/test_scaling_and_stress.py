"""Larger-configuration and stress tests (marked slow)."""

import pytest

from repro.adversary.strategies import BreakinPlan, MobileBreakInAdversary
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule, verify_user_signature
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)


@pytest.mark.slow
def test_seven_nodes_t3_full_cycle(wire):
    """n = 7, t = 3 — the next resilience tier up; mobile break-ins of 3
    nodes per unit, refresh, recovery, signing."""
    n, t = 7, 3
    public, states, keys = build_uls_states(GROUP, SCHEME, n, t, seed=1)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(n)]
    schedule = uls_schedule()
    plan = BreakinPlan(victims={0: frozenset({0, 1, 2}), 1: frozenset({4, 5, 6})})
    runner = ULRunner(programs, MobileBreakInAdversary(plan), schedule, s=t, seed=1)
    r1 = schedule.first_normal_round(1)
    for i in range(n):
        runner.add_external_input(i, r1, ("sign", "big"))
    execution = runner.run(units=2)
    signature = next(p.signatures[("big", 1)] for p in programs
                     if ("big", 1) in p.signatures)
    assert verify_user_signature(public, "big", 1, signature)
    for program in programs:
        assert program.state.share_is_valid()
        assert program.core.alert_units == []


@pytest.mark.slow
def test_many_concurrent_signing_sessions(wire):
    """Eight messages signed concurrently in one unit — sessions must not
    interfere (distinct nonces, distinct signatures, all verify)."""
    n, t = 5, 2
    public, states, keys = build_uls_states(GROUP, SCHEME, n, t, seed=2)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(n)]
    schedule = uls_schedule()
    runner = ULRunner(programs, PassiveAdversary(), schedule, s=t, seed=2)
    r0 = schedule.first_normal_round(0)
    messages = [f"doc-{k}" for k in range(8)]
    for message in messages:
        for i in range(n):
            runner.add_external_input(i, r0, ("sign", message))
    runner.run(units=1)
    signatures = {}
    for message in messages:
        signature = programs[0].signatures[(message, 0)]
        assert verify_user_signature(public, message, 0, signature)
        signatures[message] = (signature.commitment, signature.response)
    # all-distinct nonces: no (R, s) reuse across messages
    assert len(set(signatures.values())) == len(messages)
    # cross-verification fails
    assert not verify_user_signature(public, "doc-0", 0,
                                     programs[0].signatures[("doc-1", 0)])


@pytest.mark.slow
def test_long_run_six_units(wire):
    """Six time units with alternating break-ins: shares stay valid, key
    history is an unbroken chain of successes."""
    n, t = 5, 2
    public, states, keys = build_uls_states(GROUP, SCHEME, n, t, seed=3)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(n)]
    victims = {u: frozenset({u % n, (u + 2) % n}) for u in range(0, 6, 2)}
    runner = ULRunner(programs, MobileBreakInAdversary(BreakinPlan(victims=victims)),
                      uls_schedule(), s=t, seed=3)
    execution = runner.run(units=6)
    for program in programs:
        assert program.keystore.history == [(u, "ok") for u in range(1, 6)]
        assert program.state.share_is_valid()
        assert program.core.alert_units == []
    # erasure log shows one refresh per unit
    refreshes = [u for u, kind in programs[0].state.erasure_log if kind == "refresh"]
    assert refreshes == [1, 2, 3, 4, 5]
