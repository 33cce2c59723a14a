"""E13 — chaos sweep: seeded fault plans vs. the emulation invariants.

The robustness claim behind Theorem 14: as long as the fault pattern
stays (s,t)-limited (Definition 7), the emulation invariants I1–I3 hold
no matter *which* faults occur or when.  We generate a large population
of seeded, limit-respecting ``FaultPlan`` schedules — crashes, memory
corruption, drops, duplication, bounded delay, reordering — and replay
them over both protocol layers:

* DISPERSE under a chattering workload (every node keeps dispersing
  probes with one retransmission), and
* the full ULS with certificate retransmission and the grace window.

Every run carries its verdict (:mod:`repro.analysis.verdict`) live and
fail-fast, so a violation of I1–I3 or Definition 7 aborts the run at the
exact offending round, and every run that finishes must have a clean
verdict, GOOD classification included on the ULS.  A deliberately
limit-breaking ``burst`` plan must trip the verdict at its first round,
and identical seed + plan must reproduce the transcript bit-for-bit.
(E16 times the same runs without a verdict.)
"""

import pytest

from repro.analysis.monitor import InvariantViolationError
from repro.analysis.verdict import Verdict
from repro.core.disperse import DisperseService
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.faults import FaultInjectionAdversary, FaultPlan, burst
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

from common import GROUP, SCHEME, emit, format_table, judged_run, table_data

N, T = 5, 2
UNITS = 3
DISP_SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
ULS_SCHED = uls_schedule()
DISPERSE_SEEDS = range(0, 30)
ULS_SEEDS = range(100, 124)


class ChaosChatter(NodeProgram):
    """Every normal round each node disperses a probe to its ring
    successor — steady DISPERSE traffic for the faults to chew on."""

    def __init__(self) -> None:
        super().__init__()
        self.disperse = DisperseService(retransmit=1)
        self.delivered: list = []
        self.secret = "initial-secret"  # default corruption target

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        self.delivered.extend(self.disperse.receipts(""))
        if ctx.info.phase.value == "normal":
            target = (self.node_id + 1) % ctx.n
            self.disperse.send(ctx, target, ("probe", self.node_id, ctx.info.round))


def disperse_chaos(seed: int) -> ULRunner:
    """The runner of a seeded fault plan over DISPERSE chatter."""
    plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=DISP_SCHED, units=UNITS)
    programs = [ChaosChatter() for _ in range(N)]
    return ULRunner(programs, FaultInjectionAdversary(plan), DISP_SCHED, s=T, seed=seed)


def uls_chaos(seed: int) -> ULRunner:
    """The runner of a seeded fault plan over the full ULS."""
    plan = FaultPlan.generate(seed=seed, n=N, t=T, schedule=ULS_SCHED, units=UNITS)
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i], cert_retransmit=1, cert_grace_rounds=1)
                for i in range(N)]
    return ULRunner(programs, FaultInjectionAdversary(plan), ULS_SCHED, s=T, seed=seed)


def transcript(execution, programs) -> tuple:
    return (
        execution.global_output(),
        tuple(tuple(record.unreliable_links) for record in execution.records),
        tuple(getattr(p, "delivered", ()) and tuple(p.delivered) for p in programs),
    )


@pytest.fixture(scope="module")
def sweep():
    rows = []
    for seed in DISPERSE_SEEDS:
        runner = disperse_chaos(seed)
        report = judged_run(runner, T, UNITS, fail_fast=True)[1]
        assert report.clean, (seed, report.problems())
        delivered = sum(len(node.program.delivered) for node in runner.nodes)
        rows.append(("disperse", seed, runner.adversary.plan.fault_count(), delivered, "-",
                     len(report.violations), "-", "yes"))
    for seed in ULS_SEEDS:
        runner = uls_chaos(seed)
        report = judged_run(runner, T, UNITS, fail_fast=True)[1]
        assert report.clean, (seed, report.problems())
        programs = [node.program for node in runner.nodes]
        ok_units = sum(1 for p in programs for _, status in p.keystore.history if status == "ok")
        degraded = sum(len(p.core.degraded_log) for p in programs)
        rows.append(("uls", seed, runner.adversary.plan.fault_count(), ok_units, degraded,
                     len(report.violations), report.classification, "yes"))
    return rows


def test_e13_chaos_sweep_holds_the_invariants(sweep, benchmark):
    assert len(sweep) >= 50  # the acceptance floor: >= 50 seeded plans
    assert all(row[5] == 0 for row in sweep)
    headers = ["protocol", "seed", "faults", "delivered/ok-units", "degraded", "violations",
               "classification", "clean verdict"]
    emit("e13_chaos", format_table(
        "E13  chaos sweep: seeded (s,t)-limited fault plans vs. invariants I1-I3",
        headers,
        sweep,
    ), data=table_data(headers, sweep))
    benchmark(lambda: disperse_chaos(7).run(units=UNITS))


def test_identical_seed_and_plan_reproduce_the_transcript():
    plan = FaultPlan.generate(seed=13, n=N, t=T, schedule=DISP_SCHED, units=UNITS)

    def replay():
        programs = [ChaosChatter() for _ in range(N)]
        runner = ULRunner(programs, FaultInjectionAdversary(plan), DISP_SCHED,
                          s=T, seed=13)
        execution = runner.run(units=UNITS)
        return transcript(execution, programs)

    assert replay() == replay()


def test_broken_plan_trips_the_monitor_at_the_exact_round():
    """Negative control: a limit-breaking burst must fail fast, naming
    the first round at which the impairment budget is exceeded."""
    first = DISP_SCHED.first_normal_round(0) + 2
    plan = burst(99, victims=[0, 1, 2], peers=range(N),
                 first_round=first, last_round=first + 3)
    programs = [ChaosChatter() for _ in range(N)]
    runner = ULRunner(programs, FaultInjectionAdversary(plan), DISP_SCHED,
                      s=T, seed=0, observers=[Verdict(T, programs)])
    with pytest.raises(InvariantViolationError) as excinfo:
        runner.run(units=UNITS)
    violation = excinfo.value.violation
    assert violation.invariant == "L1-limit"
    assert violation.event_round == first
    assert violation.detected_round == first
