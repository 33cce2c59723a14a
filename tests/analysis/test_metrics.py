"""Tests for the metrics helpers."""

from repro.analysis.metrics import (
    alert_counts,
    certification_availability,
    delivery_rate,
    message_stats,
    recovery_units,
)
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, breakins
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


def run(adversary=None, units=2, seed=12):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=T, seed=seed)
    execution = runner.run(units=units)
    return execution, programs


def test_message_stats_totals_consistent():
    execution, _ = run()
    stats = message_stats(execution)
    assert stats.total == execution.messages_sent()
    assert stats.total == sum(stats.by_phase.values())
    assert stats.total == sum(stats.by_channel.values())
    assert stats.per_refresh_phase > 0
    assert "disperse" in stats.by_channel
    assert "newkey" in stats.by_channel


def test_alert_counts_empty_for_benign_run():
    execution, _ = run()
    assert alert_counts(execution) == {}


def test_certification_availability():
    assert certification_availability({0: {1: "ok"}, 1: {1: "failed"}}, units=2) == 0.5
    assert certification_availability({}, units=1) == 1.0


def test_delivery_rate():
    assert delivery_rate(10, 7) == 0.7
    assert delivery_rate(0, 0) == 1.0


def test_recovery_units_tracks_refresh_promotions():
    adversary = FaultInjectionAdversary(breakins(SCHED, {0: {3}}))
    execution, _ = run(adversary=adversary, units=2)
    assert recovery_units(execution, 3) == [1]
    assert recovery_units(execution, 0) == []
