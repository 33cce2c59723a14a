"""Randomized composite-adversary fuzzing of the full ULS stack.

Each case composes a random-but-in-limits adversary — rotating break-ins,
scheduled link faults concentrated on at most ``t`` victims per unit, and
replay — runs several units, then asserts the Theorem 14 bundle: the
execution classifies GOOD, the emulation invariants hold, every
connectivity-intact node ends certified with a valid share, and every
node that missed a certificate alerted.
"""

import random
from dataclasses import replace

import pytest

from repro.adversary.strategies import ReplayAdversary
from repro.analysis.emulation import check_emulation_invariants
from repro.analysis.goodness import classify_execution
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import DropFault, FaultInjectionAdversary, breakins
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T, UNITS = 5, 2, 3
SCHED = uls_schedule()


def random_adversary(rng: random.Random):
    # rotating break-ins on a random subset of units
    victims = {}
    for unit in range(1, UNITS):
        if rng.random() < 0.7:
            victims[unit] = rng.sample(range(N), rng.randint(1, T))
    drops = []
    # link faults against at most one victim's links during normal rounds
    # (keeping the per-unit impairment within t together with break-ins
    # is the fuzzer's job: it only faults links of already-broken victims
    # or, in break-free units, of one extra node)
    for unit in range(1, UNITS):
        pool = victims.get(unit, None)
        target = rng.choice(sorted(pool)) if pool else rng.randrange(N)
        if rng.random() < 0.5:
            rounds = list(SCHED.rounds_of_unit(unit))
            normal = [r for r in rounds if SCHED.info(r).phase.value == "normal"]
            if not normal:
                continue
            first, last = normal[0], normal[-1]
            peers = rng.sample([j for j in range(N) if j != target],
                               rng.randint(1, N - 1))
            for peer in peers:
                drops.append(DropFault(link=frozenset({target, peer}),
                                       first_round=first, last_round=last))
    replay = ReplayAdversary(delay=rng.randint(2, 4)) if rng.random() < 0.5 else None
    if not (victims or drops or replay):
        replay = ReplayAdversary(delay=2)
    plan = replace(breakins(SCHED, victims), drops=tuple(drops))
    return FaultInjectionAdversary(plan, base=replay)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_composite_adversaries_stay_good(seed, wire):
    rng = random.Random(1000 + seed)
    adversary = random_adversary(rng)
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    runner = ULRunner(programs, adversary, SCHED, s=T, seed=seed)
    execution = runner.run(units=UNITS)

    histories = {i: dict(p.keystore.history) for i, p in enumerate(programs)}
    certified = {i: dict(p.keystore.key_reprs) for i, p in enumerate(programs)}
    goodness = classify_execution(execution, public, SCHEME, histories, T,
                                  certified_keys=certified)
    assert goodness.classification == "GOOD", goodness.forged or goodness.bad1_failures

    invariants = check_emulation_invariants(execution, T)
    assert invariants.ok, invariants.violations

    for i, program in enumerate(programs):
        for unit in range(1, UNITS):
            if histories[i].get(unit) == "failed":
                # a failed refresh must have been alerted
                assert unit in program.core.alert_units
