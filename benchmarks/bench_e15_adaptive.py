"""E15 — adaptive chaos campaigns: failure frontier and recovery SLOs.

Where E13 replays *static* seeded fault plans, E15 turns the adversary
adaptive: each strategy reads the transcript so far (through its
``ExecutionLens``) and chooses the current unit's faults online —
re-breaking nodes the unit after they recover, dropping the busiest
DISPERSE links, starving the refreshment phase's certificate channels.
Two claims are measured:

1. **The guard holds.**  With requests projected through the online
   ``StBudgetGuard``, every campaign's escalation ladder — up to full
   aggressiveness — runs with a clean verdict at every probe (I1–I3,
   Definition 7, GOOD classification and every signature; see
   :mod:`repro.analysis.verdict`), and the safety margin is established.
   This is the adaptive sharpening of Theorem 14's robustness reading:
   the invariants survive not just any (s,t)-limited schedule, but an
   (s,t)-limited *adaptive* one.
2. **Unguarded, there is a frontier.**  The same strategies with the
   guard off violate L1 once they want more than ``t`` victims; the
   campaign bisects to the frontier knob, which localises how much
   over-budget pressure the protocol absorbs before Definition 7 stops
   applying.

Every probe carries its verdict live and fail-fast, and every guarded
probe a ``RecoverySloObserver``: the emitted ``BENCH_E15.json`` records
each probe's verdict summary, per-strategy frontier knobs, the SLO
distributions (time-to-recovery, signing availability) and the
determinism replay (same campaign seed ⇒ identical per-probe transcript
digests).  ``BENCH_SMOKE=1`` runs a reduced sweep for CI.
"""

import os

import pytest

from repro.analysis.slo import RecoverySloObserver
from repro.analysis.verdict import Verdict
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.faults import (
    AdaptiveAdversary,
    Probe,
    TrafficTargeterStrategy,
    escalate,
    make_strategy,
)
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

from common import GROUP, SCHEME, emit, format_table

SMOKE = os.environ.get("BENCH_SMOKE", "0") == "1"

UNITS = 4
ULS_SCHED = uls_schedule(normal_rounds=12)
ECHO_SCHED = Schedule(setup_rounds=2, refresh_rounds=4, normal_rounds=10)
STRATEGIES = ("recovery-chaser", "traffic-targeter", "certificate-starver")
SIZES = ((5, 2),) if SMOKE else ((5, 2), (7, 2))
SEEDS = range(1) if SMOKE else range(7)
LADDER = (0.3, 1.0) if SMOKE else (0.3, 0.6, 1.0)


class Chatter(NodeProgram):
    """Minimal broadcast chatter: steady symmetric traffic on every link,
    the cheap scenario for the unguarded frontier campaigns."""

    def __init__(self) -> None:
        super().__init__()
        self.counter = 0

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        ctx.broadcast("echo", ("tick", self.node_id, self.counter))
        self.counter += 1


def build_uls_probe(strategy_name: str, n: int, t: int, seed: int,
                    aggressiveness: float, *, guarded: bool = True) -> Probe:
    """A full-ULS probe with per-unit sign traffic, and SLO telemetry and
    the verdict's Definition 7 reading in its extras."""
    adversary = AdaptiveAdversary(make_strategy(strategy_name), t, seed=seed,
                                  guarded=guarded, aggressiveness=aggressiveness)
    slo = RecoverySloObserver()
    _, states, keys = build_uls_states(GROUP, SCHEME, n, t, seed=seed)
    programs = [UlsProgram(states[i], SCHEME, keys[i], cert_retransmit=1, cert_grace_rounds=1)
                for i in range(n)]
    verdict = Verdict(t, programs)
    runner = ULRunner(programs, adversary, ULS_SCHED, s=t, seed=seed,
                      observers=[adversary.lens, verdict, slo])
    # one sign request per node per unit: DISPERSE relay traffic for the
    # traffic-targeter to read, signing availability for the SLO to score
    for unit in range(1, UNITS):
        sign_round = ULS_SCHED.first_normal_round(unit) + 2
        for i in range(n):
            runner.add_external_input(i, sign_round, ("sign", f"msg-u{unit}"))

    return Probe(runner=runner, units=UNITS, verdict=verdict, extras=lambda execution: {
        "slo": slo.report(), "st_audit_ok": verdict.report(execution).within_model})


def build_echo_probe(strategy_name: str, n: int, t: int, seed: int,
                     aggressiveness: float, *, guarded: bool = False) -> Probe:
    """Chatter probe for the frontier search: every link is busy every
    round, so the targeter has traffic to rank and violations are cheap
    to reach (fail-fast aborts at the offending round)."""
    strategy = (TrafficTargeterStrategy(channel="echo")
                if strategy_name == "traffic-targeter"
                else make_strategy(strategy_name))
    adversary = AdaptiveAdversary(strategy, t, seed=seed, guarded=guarded,
                                  aggressiveness=aggressiveness)
    programs = [Chatter() for _ in range(n)]
    verdict = Verdict(t, programs)
    runner = ULRunner(programs, adversary, ECHO_SCHED,
                      s=t, seed=seed, observers=[adversary.lens, verdict])
    return Probe(runner=runner, units=UNITS, verdict=verdict)


@pytest.fixture(scope="module")
def guarded_campaigns():
    """The acceptance sweep: strategies x sizes x seeds, each escalated
    over the full ladder with the budget guard on."""
    campaigns = []
    for strategy_name in STRATEGIES:
        for n, t in SIZES:
            for seed in SEEDS:
                campaign_id = f"{strategy_name}-n{n}-s{seed}"
                result = escalate(
                    campaign_id,
                    lambda knob, sn=strategy_name, nn=n, tt=t, ss=seed:
                        build_uls_probe(sn, nn, tt, ss, knob),
                    ladder=LADDER, bisect_steps=0,
                )
                campaigns.append({
                    "strategy": strategy_name, "n": n, "t": t, "seed": seed,
                    "result": result,
                })
    return campaigns


@pytest.fixture(scope="module")
def frontier_campaigns():
    """Negative controls: the same strategies unguarded.  The chaser and
    targeter break L1 on chatter once they want > t victims; the starver
    needs real certificate traffic, so its frontier runs on the ULS."""
    frontiers = {}
    ladder = (0.2, 0.4, 0.6, 0.8, 1.0)
    for strategy_name in ("recovery-chaser", "traffic-targeter"):
        frontiers[strategy_name] = escalate(
            f"frontier-{strategy_name}",
            lambda knob, sn=strategy_name: build_echo_probe(sn, 5, 2, 0, knob),
            ladder=ladder, bisect_steps=0 if SMOKE else 2,
        )
    frontiers["certificate-starver"] = escalate(
        "frontier-certificate-starver",
        lambda knob: build_uls_probe("certificate-starver", 5, 2, 0, knob,
                                     guarded=False),
        ladder=ladder, bisect_steps=0 if SMOKE else 2,
    )
    return frontiers


def test_e15_guarded_campaigns_establish_the_margin(guarded_campaigns,
                                                    frontier_campaigns,
                                                    benchmark):
    if not SMOKE:
        assert len(guarded_campaigns) >= 40  # the acceptance floor

    rows = []
    slo_distributions = {name: {"ttr_units_max": [],
                                "signing_availability_min": [],
                                "alerts": []}
                         for name in STRATEGIES}
    for campaign in guarded_campaigns:
        result = campaign["result"]
        # a clean verdict at every knob, guard margin certified
        assert result.margin_established, result.as_dict()
        assert result.first_violation is None
        for probe in result.probes:
            assert probe.ok and probe.digest, (result.campaign_id, probe.aggressiveness,
                                               probe.verdict)
        dist = slo_distributions[campaign["strategy"]]
        top = result.probes[-1]  # the full-aggressiveness probe
        dist["ttr_units_max"].append(top.extras["slo"]["ttr_units_max"])
        dist["signing_availability_min"].append(
            top.extras["slo"]["signing_availability_min"])
        dist["alerts"].append(len(top.extras["slo"]["alerts"]))
        rows.append((campaign["strategy"], campaign["n"], campaign["t"],
                     campaign["seed"], len(result.probes),
                     "yes" if result.margin_established else "NO",
                     top.extras["slo"]["ttr_units_max"],
                     f"{top.extras['slo']['signing_availability_min']:.2f}"))

    # the guard is not vacuous: the same strategies unguarded do violate
    frontier_summary = {}
    for name, result in frontier_campaigns.items():
        assert result.frontier is not None, name
        assert not result.margin_established
        assert result.last_clean is not None and result.last_clean < result.frontier
        assert result.first_violation["invariant"] == "L1-limit"
        frontier_summary[name] = {
            "frontier": result.frontier,
            "last_clean": result.last_clean,
            "first_violation": result.first_violation,
        }

    # the victims *did* go down and *did* recover on schedule: at full
    # aggressiveness the chaser's worst time-to-recovery is the Def. 5.3
    # contract value (one unit), never worse
    chaser_ttr = slo_distributions["recovery-chaser"]["ttr_units_max"]
    assert chaser_ttr and all(ttr == 1 for ttr in chaser_ttr)

    headers = ["strategy", "n", "t", "seed", "probes", "margin",
               "ttr_units_max", "signing_avail_min"]
    payload = {
        "units": UNITS,
        "ladder": list(LADDER),
        "campaigns": [
            {"strategy": c["strategy"], "n": c["n"], "t": c["t"],
             "seed": c["seed"], **c["result"].as_dict()}
            for c in guarded_campaigns
        ],
        "frontiers": frontier_summary,
        "slo_distributions": slo_distributions,
    }
    if SMOKE:
        from common import emit_json
        emit_json("BENCH_E15_smoke", payload)
    else:
        emit("e15_adaptive", format_table(
            "E15  adaptive campaigns: guarded escalation margins + SLOs "
            "(frontier in JSON)",
            headers, rows,
        ), data=payload)
    benchmark(lambda: build_uls_probe("recovery-chaser", 5, 2, 0, 1.0)
              .runner.run(UNITS))


def test_e15_campaigns_are_deterministic(guarded_campaigns):
    """S6: replaying a campaign under the same seed reproduces every
    probe's transcript digest bit-for-bit."""
    first_seed = min(SEEDS)
    for strategy_name in STRATEGIES:
        original = next(
            c["result"] for c in guarded_campaigns
            if c["strategy"] == strategy_name and c["n"] == 5
            and c["seed"] == first_seed)
        replay = escalate(
            f"{strategy_name}-replay",
            lambda knob, sn=strategy_name: build_uls_probe(sn, 5, 2, first_seed, knob),
            ladder=LADDER, bisect_steps=0,
        )
        assert ([p.digest for p in replay.probes]
                == [p.digest for p in original.probes]), strategy_name
        assert all(p.digest for p in replay.probes)


def test_e15_different_campaign_seeds_diverge():
    """The digests actually depend on the seed (the replay test is not
    comparing constants)."""
    a = build_uls_probe("recovery-chaser", 5, 2, 1, 1.0)
    b = build_uls_probe("recovery-chaser", 5, 2, 2, 1.0)
    from repro.analysis.digest import transcript_digest
    assert transcript_digest(a.runner.run(UNITS)) != transcript_digest(b.runner.run(UNITS))
