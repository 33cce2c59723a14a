"""E4 — Proposition 31: (t,t)-awareness of the authenticator.

Two attack flavors against Λ(π), bracketing what the paper promises:

- **stolen-key cut-off** (§1.1): the forgeries use keys stolen in a
  break-in; they expire at the next refresh, so impersonation is
  *prevented* (0 forged messages accepted) and the victim alerts;
- **fresh-key cut-off** (§2.3's "inevitable" case, no break-in at all):
  the adversary gets its own key certified in the silent victim's name;
  impersonation *succeeds* — and the victim still alerts in every such
  unit.  Awareness recall must be 1.0 in both; benign runs provide the
  false-alert control (must be 0).

Every run's verdict (:mod:`repro.analysis.verdict`) must be clean: the
forged messages counted are its Definition 10 impersonations, each of a
node not operational through the unit that alerted in it.
"""

import pytest

from repro.adversary.impersonation import FreshKeyImpersonationAdversary, UlsImpersonator
from repro.adversary.strategies import CutOffAdversary
from repro.core.authenticator import compile_protocol
from repro.core.uls import build_uls_states, uls_schedule
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

from common import GROUP, SCHEME, emit, format_table, judged_run

N, T = 5, 2
UNITS = 4


class ChatterProtocol(NodeProgram):
    """π: every node broadcasts a stamped message each normal round."""

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.info.phase is Phase.NORMAL:
            ctx.broadcast("chat", ("hello", self.node_id, ctx.info.round))


def run_judged(adversary, seed: int, victim: int = 0, cut_units=()):
    """A Λ(chatter) run against ``adversary``: the units of ``cut_units``
    in which ``victim`` alerted, the messages its verdict counts as forged
    in the victim's name in them, and the verdict report."""
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = compile_protocol([ChatterProtocol() for _ in range(N)], states, SCHEME, keys)
    runner = ULRunner(programs, adversary, uls_schedule(), s=T, seed=seed)
    execution, report = judged_run(runner, T, UNITS)
    alerted = sum(1 for u in cut_units if execution.alerts_in_unit(victim, u) >= 1)
    forged = sum(item.forged for item in report.impersonations
                 if item.node == victim and item.unit in cut_units)
    return alerted, forged, report


def run_attack(victim: int, seed: int):
    impersonator = UlsImpersonator(victim=victim)
    adversary = CutOffAdversary(victim=victim, break_unit=1, impersonator=impersonator)
    cut_units = range(2, UNITS)  # fully cut-off units
    alerted, forged, report = run_judged(adversary, seed, victim, cut_units)
    return len(cut_units), alerted, forged, len(impersonator.attempts), report


def run_fresh_key_attack(victim: int, seed: int):
    adversary = FreshKeyImpersonationAdversary(victim=victim, scheme=SCHEME, from_unit=1)
    cut_units = range(1, UNITS)
    alerted, forged, report = run_judged(adversary, seed, victim, cut_units)
    return len(cut_units), alerted, forged, adversary.forgeries_injected, report


@pytest.fixture(scope="module")
def table():
    rows = []
    total_cut = total_alerted = total_forged = 0
    for victim in range(N):
        for seed in (0, 1):
            cut, alerted, forged, attempts, report = run_attack(victim, seed)
            total_cut += cut
            total_alerted += alerted
            total_forged += forged
            rows.append(("stolen-key", victim, seed, cut, alerted, forged, attempts,
                         int(report.clean)))
            assert attempts > 0
            assert report.clean, (victim, seed, report.problems())
    assert total_alerted == total_cut, "awareness recall must be 1.0"
    assert total_forged == 0, "stolen keys must expire at the refresh"

    fresh_cut = fresh_alerted = 0
    for victim in (0, 2, 4):
        cut, alerted, forged, attempts, report = run_fresh_key_attack(victim, seed=1)
        fresh_cut += cut
        fresh_alerted += alerted
        rows.append(("fresh-key", victim, 1, cut, alerted, forged, attempts,
                     int(report.clean)))
        assert forged > 0, "the inevitable impersonation must succeed"
        assert report.clean, (victim, report.problems())
    assert fresh_alerted == fresh_cut, "awareness recall must be 1.0 even when " \
                                       "impersonation succeeds"

    benign = [run_judged(PassiveAdversary(), seed)[2] for seed in (0, 1)]
    false_alerts = sum(len(nodes) for report in benign for nodes in report.alerting_nodes.values())
    clean = sum(report.clean for report in benign)
    rows.append(("benign", "-", "0-1", 0, false_alerts, 0, 0, clean))
    assert false_alerts == 0
    assert clean == len(benign), [report.problems() for report in benign]
    return rows


def test_e4_awareness(table, benchmark):
    emit("e4_awareness", format_table(
        "E4  Awareness (Prop. 31): recall must be 1.0 — impersonation is "
        "prevented against stolen keys and merely detected (inevitably) "
        "against certified fresh keys",
        ["attack", "victim", "seed", "cut-off units", "units alerted",
         "forged accepted", "forge attempts", "clean verdicts"],
        table,
    ))
    benchmark(lambda: run_attack(0, 42))
