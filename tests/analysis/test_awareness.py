"""Tests for the §5.1 global-awareness signal, read from the run's verdict."""

from repro.adversary.impersonation import UlsImpersonator
from repro.adversary.strategies import CutOffAdversary, InjectionFloodAdversary
from repro.analysis.verdict import Verdict
from repro.core.uls import NEWKEY_CHANNEL, UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


def run(adversary, units=2, seed=8):
    """The verdict report of a ULS run against ``adversary``."""
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    verdict = Verdict(T, programs, fail_fast=False)
    runner = ULRunner(programs, adversary, SCHED, s=T, seed=seed, observers=[verdict])
    return verdict.report(runner.run(units=units))


def test_benign_run_clean_report():
    report = run(PassiveAdversary())
    assert report.model_exceeded_units == ()
    assert report.alerting_nodes == {}
    assert report.clean


def test_in_model_attack_does_not_trip_global_signal():
    """A (t,t)-limited cut-off attack alerts only the victim: local
    awareness fires, the global signal does not."""
    adversary = CutOffAdversary(victim=3, break_unit=1,
                                impersonator=UlsImpersonator(victim=3))
    report = run(adversary, units=3)
    assert report.model_exceeded_units == ()
    assert any(3 in nodes for nodes in report.alerting_nodes.values())
    assert report.clean


def test_injection_flood_trips_global_signal():
    """The §5.1 almost-(t,t)-limited injector denies everyone their
    certificates: > t simultaneous alerts expose it."""
    adversary = InjectionFloodAdversary(
        payload_factory=lambda c, r, rng: (
            "newkey", 1, SCHEME.key_repr(SCHEME.generate(rng).verify_key)
        ),
        channel=NEWKEY_CHANNEL,
        flood_factor=1,
    )
    report = run(adversary, units=2)
    assert 1 in report.model_exceeded_units
    assert len(report.alerting_nodes[1]) == N
    assert not report.clean
