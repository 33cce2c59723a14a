"""Recovery-SLO telemetry, anchored to the E7 recovery contract.

The headline test reproduces the ``bench_e7_recovery`` scenario — a node
broken and state-corrupted during unit 1 recovers everything at unit 2's
refreshment phase — and asserts that the SLO layer and the transcript's
operational sets (:func:`recovery_units`) tell the same story from their
two vantage points: ``recovery_units`` says *which* unit re-admitted the
node (2), the SLO says *how long* that took (1 unit).
"""

import json

from tests.helpers import EchoProgram
from repro.analysis.monitor import RuntimeInvariantMonitor
from repro.analysis.slo import RecoverySloObserver
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import (
    CrashFault,
    FaultInjectionAdversary,
    FaultPlan,
    breakins,
    default_corruptor,
)
from repro.sim.clock import Phase, Schedule
from repro.sim.runner import ULRunner, replay

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
UNITS = 3


def recovery_units(execution, node):
    """Units at whose refresh-phase end ``node`` re-entered the
    operational set."""
    units = []
    previous = True
    for record in execution.records:
        now = node in record.operational
        if now and not previous and record.info.phase is Phase.REFRESH:
            units.append(record.info.time_unit)
        previous = now
    return units


def run_e7_scenario(victim=0, seed=3):
    """The bench_e7_recovery shape: break + corrupt one node in unit 1."""
    schedule = uls_schedule()
    adversary = FaultInjectionAdversary(
        breakins(schedule, {1: {victim}}, mutator=default_corruptor))
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    monitor = RuntimeInvariantMonitor(T, fail_fast=True)
    slo = RecoverySloObserver()
    runner = ULRunner(programs, adversary, schedule, s=T, seed=seed,
                      observers=[monitor, slo])
    execution = runner.run(units=UNITS)
    return execution, programs, slo, monitor


def test_slo_agrees_with_the_e7_recovery_contract():
    victim = 0
    execution, programs, slo, monitor = run_e7_scenario(victim)
    assert monitor.ok

    # metrics: the victim re-entered during unit 2's refreshment phase
    assert recovery_units(execution, victim) == [2]
    for other in range(1, N):
        assert recovery_units(execution, other) == []

    # SLO: down in unit 1, back in unit 2 => time-to-recovery of 1 unit
    assert slo.ttr_units(victim) == [1]
    (span,) = [s for s in slo.spans if s["node"] == victim]
    assert span["start_unit"] == 1 and span["end_unit"] == 2
    assert not slo.unrecovered

    # the contract includes silence: recovery needs no operator
    assert slo.alerts == []
    report = slo.report()
    assert report["ttr_units_max"] == 1
    assert report["signing_availability"]["2"] == 1.0  # machinery restored

    # the break-in damaged the victim's share, and unit 2's refresh repaired it
    assert dict(execution.adversary_output)["fault-stats"]["corruptions"] == 1
    assert programs[victim].keystore.history == [(1, "ok"), (2, "ok")]
    assert programs[victim].state.share_is_valid()


def run_fault_plan(seed=103):
    """One generated fault plan over ULS, shaped like E13's chaos runs."""
    schedule = uls_schedule()
    plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=schedule, units=UNITS)
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i], cert_retransmit=1,
                           cert_grace_rounds=1) for i in range(N)]
    slo = RecoverySloObserver()
    runner = ULRunner(programs, FaultInjectionAdversary(plan), schedule, s=T,
                      seed=seed, observers=[slo])
    return runner.run(units=UNITS), slo


def test_replayed_slo_report_equals_the_live_one():
    """The observer reads outputs through ``RunObserver.new_outputs``, so
    a finished execution replayed through it gives the live report."""
    execution, _, live, _ = run_e7_scenario()
    assert replay(execution, RecoverySloObserver()).report() == live.report()
    execution, live = run_fault_plan()
    assert live.spans and live.unrecovered
    assert replay(execution, RecoverySloObserver()).report() == live.report()


def test_slo_report_is_json_ready():
    _, _, slo, _ = run_e7_scenario()
    report = slo.report()
    assert json.loads(json.dumps(report)) == report


def test_slo_spans_on_chatter_crash():
    """A plain crash fault over echo chatter: one span per victim, closed
    at the next unit's refreshment phase."""
    schedule = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
    first = schedule.first_normal_round(1)
    plan = FaultPlan(seed=1, crashes=(CrashFault(2, first + 1, first + 4),))
    slo = RecoverySloObserver()
    runner = ULRunner([EchoProgram() for _ in range(N)],
                      FaultInjectionAdversary(plan), schedule, s=T, seed=5,
                      observers=[slo])
    runner.run(units=UNITS)
    assert slo.ttr_units(2) == [1]
    assert slo.ttr_units() == [1]            # nobody else was touched
    (span,) = slo.spans
    assert span["start_round"] == first + 1
    assert span["ttr_rounds"] == schedule.first_normal_round(2) - 1 - (first + 1)


def test_unrecovered_nodes_are_reported_at_run_end():
    """A crash in the final unit leaves an open span: the node never sees
    another refreshment phase, so the SLO must report it unrecovered."""
    schedule = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
    first = schedule.first_normal_round(UNITS - 1)
    plan = FaultPlan(seed=1, crashes=(CrashFault(1, first, first + 3),))
    slo = RecoverySloObserver()
    runner = ULRunner([EchoProgram() for _ in range(N)],
                      FaultInjectionAdversary(plan), schedule, s=T, seed=5,
                      observers=[slo])
    runner.run(units=UNITS)
    assert slo.spans == []
    (open_span,) = slo.unrecovered
    assert open_span["node"] == 1 and open_span["ttr_units"] is None
    assert slo.report()["unrecovered"]


# ------------------------------------------------- synthetic event accounting

class _Info:
    def __init__(self, round_, unit):
        self.round = round_
        self.time_unit = unit


class _Record:
    def __init__(self, round_, unit, n, impaired=()):
        self.info = _Info(round_, unit)
        self.broken = frozenset()
        self.operational = frozenset(range(n)) - frozenset(impaired)


class _Execution:
    def __init__(self, n):
        self.n = n
        self.node_outputs = [[] for _ in range(n)]
        self.records = []


def test_alert_latency_and_degraded_dwell_bookkeeping():
    """Drive the observer by hand: alert latency counts from the start of
    the open impairment span; degraded dwell counts to re-entry (and is 0
    for a node that never left the operational set)."""
    from repro.sim.node import ALERT

    n = 3
    execution = _Execution(n)
    slo = RecoverySloObserver()

    def step(record):
        execution.records.append(record)
        slo.on_round(execution, record)

    step(_Record(0, 0, n))                 # all fine
    step(_Record(1, 0, n, impaired=[1]))   # span opens at 1
    execution.node_outputs[1].append((3, ("degraded", {"reason": "no-certificate",
                                                       "unit": 0})))
    execution.node_outputs[1].append((3, ALERT))
    execution.node_outputs[2].append((3, ("degraded", {"reason": "certificate-late",
                                                       "unit": 0})))
    step(_Record(3, 0, n, impaired=[1]))
    step(_Record(6, 1, n))                 # node 1 back at 6
    slo.on_run_end(execution)

    (alert,) = slo.alerts
    assert alert == {"node": 1, "round": 3, "unit": 0, "latency_rounds": 2}
    dwells = {d["node"]: d["dwell_rounds"] for d in slo.dwells}
    assert dwells == {1: 3, 2: 0}  # node 2 degraded but never disconnected
    assert slo.ttr_units(1) == [1]
    availability = slo.signing_availability()
    assert availability[0] == 1.0 - 1 / n  # only no-certificate counts
    assert availability[1] == 1.0
    assert slo.report()["signing_availability_min"] == 1.0 - 1 / n
    # replayed, the round stamps put each output back in its round
    assert replay(execution, RecoverySloObserver()).report() == slo.report()
