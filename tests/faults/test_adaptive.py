"""Adaptive adversary semantics: lens, strategies, merging, determinism."""

import pytest

from tests.helpers import EchoProgram
from repro.analysis.digest import transcript_digest
from repro.analysis.monitor import InvariantViolationError, RuntimeInvariantMonitor
from repro.faults import (
    AdaptiveAdversary,
    CertificateStarverStrategy,
    RecoveryChaserStrategy,
    TrafficTargeterStrategy,
    make_strategy,
)
from repro.sim.clock import Phase, Schedule
from repro.sim.runner import ULRunner

SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
N, T = 5, 2
UNITS = 4


def run(strategy, *, aggressiveness=0.4, guarded=True, seed=7, runner_seed=11,
        fail_fast=False, units=UNITS):
    adversary = AdaptiveAdversary(strategy, T, seed=seed, guarded=guarded,
                                  aggressiveness=aggressiveness)
    monitor = RuntimeInvariantMonitor(T, fail_fast=fail_fast)
    runner = ULRunner([EchoProgram() for _ in range(N)], adversary, SCHED,
                      s=T, seed=runner_seed,
                      observers=[adversary.lens, monitor])
    execution = runner.run(units=units)
    return adversary, monitor, execution


# ------------------------------------------------------------------- the lens

def test_lens_tracks_impairment_and_traffic_per_unit():
    adversary, _, execution = run(RecoveryChaserStrategy())
    lens = adversary.lens
    for unit in range(UNITS):
        assert lens.impaired_in_unit(unit) == execution.impaired_in_unit(unit)
    # echo chatter broadcasts every round on every link
    traffic = lens.link_traffic(1, channel="echo")
    assert len(traffic) == N * (N - 1) // 2
    assert set(lens.node_traffic(1)) == set(range(N))


def test_lens_never_sees_the_round_being_planned():
    """Strategy rushing bound: when unit u is planned, the lens must hold
    every round before u's first round and nothing newer."""
    seen = {}

    class Spy(RecoveryChaserStrategy):
        def plan_unit(self, ctx):
            seen[ctx.unit] = ctx.lens.rounds_seen
            return super().plan_unit(ctx)

    run(Spy())
    for unit, rounds_seen in seen.items():
        assert rounds_seen == SCHED.rounds_of_unit(unit)[0]


# ----------------------------------------------------------------- strategies

def test_recovery_chaser_rebreaks_recovered_nodes():
    adversary, _, execution = run(RecoveryChaserStrategy())
    lens = adversary.lens
    rebreaks = 0
    for unit in range(2, UNITS):
        victims = {
            crash.node for crash in adversary.plan.crashes
            if SCHED.info(crash.first_round).time_unit == unit
        }
        # the strategy puts the previous unit's impaired nodes first
        previous = lens.impaired_in_unit(unit - 1)
        if previous:
            assert victims & previous, (unit, victims, previous)
            rebreaks += 1
    assert rebreaks > 0  # the scenario actually exercised the chase


def test_traffic_targeter_drops_the_busiest_nodes_links():
    adversary, _, _ = run(TrafficTargeterStrategy(channel="echo"))
    assert adversary.plan.drops
    for unit_report in adversary.reports:
        for drop in unit_report.drops:
            assert drop.link & unit_report.victims  # incident to a charged victim
    # echo traffic is symmetric, so ranking falls back to node ids: the
    # first planned unit targets nodes 0 and 1 (want = ceil(0.4 * 5) = 2)
    assert adversary.reports[0].victims == frozenset({0, 1})


def test_certificate_starver_attacks_refresh_certificate_channels():
    adversary, _, _ = run(CertificateStarverStrategy())
    assert adversary.plan.drops
    for drop in adversary.plan.drops:
        assert drop.channels == frozenset({"disperse", "newkey"})
        first, last = SCHED.info(drop.first_round), SCHED.info(drop.last_round)
        assert first.phase is Phase.REFRESH and last.phase is Phase.REFRESH
        assert first.time_unit == last.time_unit


def test_strategies_scale_requests_with_the_knob():
    low, _, _ = run(RecoveryChaserStrategy(), aggressiveness=0.2)
    high, _, _ = run(RecoveryChaserStrategy(), aggressiveness=1.0)
    assert (sum(r.requested for r in high.reports)
            > sum(r.requested for r in low.reports))
    # the knob is excluded from the strategy seed: the low-knob request
    # set is a prefix of the high-knob one (monotone escalation)
    low_victims = [sorted(r.victims) for r in low.reports]
    high_victims = [sorted(r.victims) for r in high.reports]
    assert all(set(lo) <= set(hi) for lo, hi in zip(low_victims, high_victims))


def test_make_strategy_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("chaos-monkey")


# ----------------------------------------------------------- adversary driver

def test_plan_reports_are_published_into_the_transcript():
    adversary, _, execution = run(RecoveryChaserStrategy())
    plans = [entry for entry in execution.adversary_output
             if isinstance(entry, tuple) and entry[0] == "adaptive-plan"]
    assert len(plans) == UNITS - 1  # one per planned unit, unit 1 on
    assert [p[1]["unit"] for p in plans] == list(range(1, UNITS))
    stats = [entry for entry in execution.adversary_output
             if isinstance(entry, tuple) and entry[0] == "adaptive-stats"]
    assert len(stats) == 1
    assert stats[0][1]["strategy"] == "recovery-chaser"
    assert stats[0][1]["approved"] == sum(r.approved for r in adversary.reports)


def test_unguarded_aggressive_run_trips_the_monitor():
    with pytest.raises(InvariantViolationError) as excinfo:
        run(RecoveryChaserStrategy(), aggressiveness=1.0, guarded=False,
            fail_fast=True)
    assert excinfo.value.violation.invariant == "L1-limit"


def test_guarded_run_with_same_strategy_stays_clean():
    _, monitor, _ = run(RecoveryChaserStrategy(), aggressiveness=1.0,
                        guarded=True, fail_fast=True)
    assert monitor.ok


# ---------------------------------------------------------------- determinism

def test_identical_seeds_reproduce_the_transcript_digest():
    digests = set()
    for _ in range(2):
        _, _, execution = run(TrafficTargeterStrategy(channel="echo"))
        digests.add(transcript_digest(execution))
    assert len(digests) == 1


def test_different_adversary_seeds_diverge():
    _, _, a = run(RecoveryChaserStrategy(), seed=1)
    _, _, b = run(RecoveryChaserStrategy(), seed=2)
    assert transcript_digest(a) != transcript_digest(b)


def test_adversary_object_is_reusable_across_runs():
    adversary = AdaptiveAdversary(RecoveryChaserStrategy(), T, seed=7,
                                  aggressiveness=0.4)

    def go():
        runner = ULRunner([EchoProgram() for _ in range(N)], adversary, SCHED,
                          s=T, seed=11, observers=[adversary.lens])
        return transcript_digest(runner.run(units=UNITS))

    assert go() == go()  # begin() resets plan, lens and guard in place
