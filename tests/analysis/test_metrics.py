"""Tests for the metrics helpers."""

from repro.analysis.metrics import expected_msgs_per_refresh, message_stats
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


def run(units=2, seed=12):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    runner = ULRunner(programs, PassiveAdversary(), SCHED, s=T, seed=seed)
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


def test_closed_forms_at_the_e8_points():
    """The closed forms at E8's volume points, and the aggregated wire's
    (n − 1)(12f − 2) envelopes per node: linear in n at fixed f."""
    assert expected_msgs_per_refresh(13, 12, "paper") == 247_728
    assert expected_msgs_per_refresh(13, 12, "aggregated") == 22_152
    assert expected_msgs_per_refresh(25, 5, "paper") == 697_200
    assert expected_msgs_per_refresh(25, 5, "aggregated") == 34_800
    for n in range(6, 40):
        assert expected_msgs_per_refresh(n, 5, "aggregated") == n * 58 * (n - 1)
