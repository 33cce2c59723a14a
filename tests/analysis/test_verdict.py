"""The run's verdict applies every oracle at once, including those the
experiments did not apply before: Definition 7 to E3's replay runs,
Definition 10 impersonation (with soundness and awareness) to E4's
fresh-key runs, and UVer to every signature a ``UlsProgram`` holds."""

import pathlib
import sys
from dataclasses import replace

from repro.analysis.verdict import verdict
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

# the benchmark modules import their siblings as top-level modules
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks"))

from bench_e3_uls_security import run_case  # noqa: E402
from bench_e4_awareness import run_fresh_key_attack  # noqa: E402
from common import GROUP, SCHEME  # noqa: E402

N, T = 5, 2


def test_e3_replay_run_is_reported_beyond_definition_7():
    """Re-delivering every DISPERSE envelope makes every link unreliable:
    all five nodes are impaired in units 1 and 2.  The run stays GOOD with
    no I1-I3 violation, but its verdict is not clean."""
    report = run_case("replay", 0)
    assert not report.within_model
    assert report.limit.violations == {1: frozenset(range(N)), 2: frozenset(range(N))}
    assert report.classification == "GOOD" and report.violations == []
    assert report.problems() == [
        f"unit {unit} exceeds Definition 7: [0, 1, 2, 3, 4] impaired, limit 2"
        for unit in (1, 2)
    ]


def test_e4_fresh_key_impersonation_is_sound_and_aware():
    """The fresh-key attack impersonates its cut-off victim in units 1-3:
    never while the victim is operational, and the victim alerts in each
    of those units, so the verdict is clean."""
    victim = 0
    *_, report = run_fresh_key_attack(victim, seed=1)
    assert [(item.unit, item.node, item.forged) for item in report.impersonations] == [
        (1, victim, 44), (2, victim, 48), (3, victim, 48)]
    assert all(not item.operational and item.alerted for item in report.impersonations)
    assert report.clean


def test_a_tampered_user_signature_is_reported():
    schedule = uls_schedule()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=3)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    runner = ULRunner(programs, PassiveAdversary(), schedule, s=T, seed=3)
    for node in range(N):
        runner.add_external_input(node, schedule.first_normal_round(0), ("sign", "doc"))
    execution = runner.run(units=1)
    assert verdict(execution, T, programs).clean

    signature = programs[2].signatures[("doc", 0)]
    programs[2].signatures[("doc", 0)] = replace(
        signature, response=(signature.response + 1) % GROUP.q)
    report = verdict(execution, T, programs)
    assert report.bad_signatures == [(2, "doc", 0)]
    assert report.problems() == ["node 2: bad signature on 'doc'/0"]
