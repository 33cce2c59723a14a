"""E7 — recovery latency: a broken node regains everything one refresh later.

Break ``k <= t`` nodes during unit 1, corrupting their entire mutable PDS
state (share randomized, commitment swapped).  At unit 2's refreshment
phase they must: re-obtain certified local keys (URfr Part I), re-sync the
commitment and recover their share (Part II recovery), and take part in
signing again — with zero alerts, because nothing about the recovery
requires operator involvement when connectivity is intact.
"""

import pytest

from repro.core.uls import uls_schedule
from repro.crypto.shamir import Share
from repro.faults import FaultInjectionAdversary, breakins

from common import GROUP, SCHEME, build_uls_network, emit, format_table

N, T = 5, 2
UNITS = 3


def corruptor(program, rng):
    state = program.state
    state.share = Share(x=state.share_index, value=rng.randrange(GROUP.q))
    from repro.crypto.feldman import FeldmanCommitment

    state.key_commitment = FeldmanCommitment(
        elements=tuple(GROUP.base_power(rng.randrange(GROUP.q)) for _ in range(T + 1))
    )


def run_recovery(k: int, seed: int):
    victims = frozenset(range(k))
    adversary = FaultInjectionAdversary(
        breakins(uls_schedule(), {1: victims}, mutator=corruptor))
    public, programs, runner, schedule = build_uls_network(N, T, seed, adversary)
    r2 = schedule.first_normal_round(2)
    for i in range(N):
        runner.add_external_input(i, r2, ("sign", "post-recovery"))
    execution = runner.run(units=UNITS)

    recovered_keys = sum(
        1 for v in victims if dict(programs[v].keystore.history).get(2) == "ok"
    )
    recovered_shares = sum(1 for v in victims if programs[v].state.share_is_valid())
    signed = sum(
        1 for v in victims
        if ("signed", "post-recovery", 2) in execution.outputs_of(v)
    )
    alerts = sum(len(programs[v].core.alert_units) for v in victims)
    return recovered_keys, recovered_shares, signed, alerts


@pytest.fixture(scope="module")
def table():
    rows = []
    for k in range(1, T + 1):
        for seed in range(3):
            keys_ok, shares_ok, signed, alerts = run_recovery(k, seed)
            rows.append((k, seed, keys_ok, shares_ok, signed, alerts, 1))
            assert keys_ok == k
            assert shares_ok == k
            assert signed == k
            assert alerts == 0
    return rows


def test_e7_recovery(table, benchmark):
    emit("e7_recovery", format_table(
        "E7  Recovery after state-corrupting break-ins "
        "(k victims in unit 1; all recover at unit 2's refresh)",
        ["victims k", "seed", "keys recovered", "shares recovered",
         "signing again", "alerts", "latency (units)"],
        table,
    ))
    benchmark(lambda: run_recovery(1, 55))
