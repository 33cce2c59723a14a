"""E10 — Theorem 13's substrate: the AL-model PDS under mobile adversaries.

The UL construction assumes a t-secure AL-model PDS; this experiment
validates our instantiation (threshold Schnorr + Herzberg refresh) against
the ideal-process invariants across the break-in spectrum:

- signing succeeds with any ``t`` nodes silenced;
- fewer than ``t + 1`` requests never produce a signature;
- shares refresh and recover across units under state corruption;
- every run's verdict (:mod:`repro.analysis.verdict`) is clean: the
  emulation invariants I1-I3 hold throughout and the break-ins stay
  within the limit.
"""

import random

import pytest

from repro.faults import FaultInjectionAdversary, breakins
from repro.pds.harness import PdsNodeProgram, required_refresh_rounds
from repro.pds.keys import deal_initial_states
from repro.pds.threshold_schnorr import verify_pds_signature
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.runner import ALRunner

from common import GROUP, corrupt_share, emit, format_table, judged_run

N, T = 5, 2
SCHED = Schedule(setup_rounds=1, refresh_rounds=required_refresh_rounds(1), normal_rounds=8)


def run_case(broken: int, requesters: int, corrupt: bool, seed: int):
    public, states = deal_initial_states(GROUP, N, T, random.Random(seed))
    programs = [PdsNodeProgram(state) for state in states]
    if broken:
        victims = frozenset(range(N - broken, N))
        plan = breakins(SCHED, {0: victims, 1: victims},
                        mutator=corrupt_share if corrupt else None)
        adversary = FaultInjectionAdversary(plan)
    else:
        adversary = PassiveAdversary()
    runner = ALRunner(programs, adversary, SCHED, seed=seed)
    r = SCHED.first_normal_round(0)
    for i in range(requesters):
        runner.add_external_input(i, r, ("sign", "payload"))
    r2 = SCHED.first_normal_round(2)
    for i in range(N):
        runner.add_external_input(i, r2, ("sign", "late"))
    execution, report = judged_run(runner, T, 3)
    signed_early = sum(
        1 for i in range(requesters)
        if ("signed", "payload", 0) in execution.outputs_of(i)
    )
    signed_late = sum(
        1 for i in range(N) if ("signed", "late", 2) in execution.outputs_of(i)
    )
    sig = programs[0].signatures.get(("payload", 0))
    verified = sig is not None and verify_pds_signature(public, "payload", 0, sig)
    shares_ok = sum(1 for p in programs if p.state.share_is_valid())
    return signed_early, signed_late, verified, report, shares_ok


@pytest.fixture(scope="module")
def table():
    rows = []
    cases = [
        ("benign, full quorum", 0, N, False),
        ("benign, exactly t+1 requests", 0, T + 1, False),
        ("benign, only t requests", 0, T, False),
        ("t nodes silenced", T, N, False),
        ("t nodes broken+corrupted", T, N, True),
    ]
    for label, broken, requesters, corrupt in cases:
        early, late, verified, report, shares_ok = run_case(
            broken, requesters, corrupt, seed=3
        )
        rows.append((label, requesters, early, late, "yes" if verified else "no",
                     len(report.violations), shares_ok, "yes" if report.clean else "no"))
        assert report.clean, (label, report.problems())
        assert shares_ok == N  # corruption healed by the refresh protocol
        if requesters >= T + 1:
            expected = min(requesters, N - broken)
            assert early >= expected - broken
            assert verified
        else:
            assert early == 0
        assert late == N  # everyone recovered and signs in unit 2
    return rows


def test_e10_al_pds(table, benchmark):
    emit("e10_al_pds", format_table(
        "E10  AL-model PDS (threshold Schnorr, Thm. 13 substrate): "
        "signing + refresh + recovery under mobile break-ins",
        ["scenario", "sign requests", "signed (unit 0)", "signed (unit 2)",
         "signature verifies", "invariant violations", "valid shares at end",
         "clean verdict"],
        table,
    ))
    benchmark(lambda: run_case(0, N, False, seed=11))
