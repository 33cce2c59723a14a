"""Randomized composite-adversary fuzzing of the full ULS stack.

Each case composes a random adversary — rotating break-ins, scheduled
link faults concentrated on at most ``t`` victims per unit, and replay —
runs several units under the run's verdict, then asserts the Theorem 14
bundle: the execution classifies GOOD, the emulation invariants I1–I3
hold, and every node that missed a certificate alerted.

A replay base re-delivers traffic on every link, which makes every link
unreliable (Def. 4) and puts all nodes out of operation for most of the
run: those cases are beyond Definition 7.  They keep the assertions
above, and their ids in :func:`test_fuzzed_composite_adversaries_verdict`
say so; every case within Definition 7 must have a clean verdict.
"""

import functools
import random
from dataclasses import replace

import pytest

from repro.adversary.strategies import ReplayAdversary
from repro.analysis.verdict import Verdict
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


@functools.lru_cache(maxsize=None)
def fuzz_case(seed: int, wire: str):
    """The verdict report of case ``seed`` on ``wire``, and per node its
    key history and alert units."""
    adversary = random_adversary(random.Random(1000 + seed))
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    verdict = Verdict(T, programs, fail_fast=False)
    runner = ULRunner(programs, adversary, SCHED, s=T, seed=seed, observers=[verdict])
    report = verdict.report(runner.run(units=UNITS))
    return report, [(dict(p.keystore.history), list(p.core.alert_units)) for p in programs]


#: the cases with a replay base
BEYOND_DEFINITION_7 = {0, 2, 4, 5, 6, 7}


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8))
def test_fuzzed_composite_adversaries_stay_good(seed, wire):
    report, nodes = fuzz_case(seed, wire)
    assert report.classification == "GOOD", report.goodness
    assert not report.violations, report.violations

    for history, alert_units in nodes:
        for unit in range(1, UNITS):
            if history.get(unit) == "failed":
                # a failed refresh must have been alerted
                assert unit in alert_units


@pytest.mark.slow
@pytest.mark.parametrize("seed", [
    pytest.param(seed, id=f"{seed}-{'beyond' if seed in BEYOND_DEFINITION_7 else 'within'}"
                          "-definition-7")
    for seed in range(8)
])
def test_fuzzed_composite_adversaries_verdict(seed, wire):
    """A case within Definition 7 has a clean verdict; a case beyond it is
    reported as such."""
    report, _ = fuzz_case(seed, wire)
    assert report.within_model == (seed not in BEYOND_DEFINITION_7), report.limit.violations
    assert report.clean or not report.within_model, report.problems()
