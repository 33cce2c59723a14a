"""The aggregated refresh wire (``wire="aggregated"``): parity & fallback.

The aggregated wire changes *which* envelopes carry the refresh/DKG
protocols — receipt aggregation over the DISPERSE broadcast primitive,
plural threshold-signer rounds, sampled refresh-help — so unlike every
perf optimisation, transcript-digest parity with the paper wire is
impossible by construction.  What these tests pin down instead is the
contract docs/PROTOCOLS.md §12 states:

* **outcome parity** — node outputs, system log, blame records
  (``rejected_dealers`` / ``rejected_partials``), key histories and
  certified key reprs are bit-identical on either wire, under seeded
  E13-style chaos as well as in the all-honest case;
* **volume** — messages per refreshment phase drop ≥ 2× even at small n;
* **deterministic fallback** — a requester whose sampled-help recovery
  came up short escalates to the full fan-out (the paper wire's path) at
  its next request, and recovers;
* **broadcast certification** — the ``BROADCAST`` destination sentinel
  is accepted for any receiver while every other step-1 rejection is
  unchanged;
* **bounded state** — the per-unit ingest state that used to grow for
  the whole run (PA sessions, signer sessions, the AUTH-SEND accepted
  log, ULS pending signatures) stays O(active units) across many
  refreshes;
* **independence** — the wire is a parameter of each protocol instance,
  so networks on both formats can run interleaved in one process.
"""

import pytest

from repro.analysis.digest import outcome_digest, transcript_digest
from repro.analysis.metrics import message_stats
from repro.core.certify import certify, ver_cert, ver_cert_many
from repro.core.uls import UlsProgram, _O_PART2, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.crypto.shamir import Share
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.pds.refresh import RefreshService
from repro.perf import BROADCAST, responder_sample, sample_size
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.clock import Phase
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)


def _build_uls(n, t, seed, adversary=None, normal_rounds=12, *, wire,
               compact_records=False):
    public, states, keys = build_uls_states(GROUP, SCHEME, n, t, seed=seed)
    programs = [
        UlsProgram(states[i], SCHEME, keys[i], cert_retransmit=1, cert_grace_rounds=1,
                   wire=wire)
        for i in range(n)
    ]
    schedule = uls_schedule(normal_rounds=normal_rounds)
    runner = ULRunner(programs, adversary or PassiveAdversary(), schedule,
                      s=t, seed=seed, compact_records=compact_records)
    return programs, runner


def _run_uls(n, t, seed, adversary=None, units=2, normal_rounds=12, *, wire,
             compact_records=False):
    programs, runner = _build_uls(n, t, seed, adversary, normal_rounds, wire=wire,
                                  compact_records=compact_records)
    return programs, runner.run(units=units)


def _outcomes(programs, execution):
    return (
        execution.global_output(),
        [frozenset(p.core.refresher.rejected_dealers) for p in programs],
        [frozenset(p.core.signer.rejected_partials) for p in programs],
        [list(p.keystore.history) for p in programs],
        [dict(p.keystore.key_reprs) for p in programs],
    )


# ------------------------------------------------------- responder sample

def test_responder_sample_deterministic_and_bounded():
    n, t = 25, 5
    sample = responder_sample(3, 7, n, t)
    assert sample == responder_sample(3, 7, n, t)
    assert len(sample) == sample_size(n, t) == 2 * t + 1
    assert 7 not in sample
    assert all(0 <= node < n for node in sample)
    assert sample == tuple(sorted(sample))
    # different (unit, requester) pairs draw different samples
    assert sample != responder_sample(4, 7, n, t)
    assert sample != responder_sample(3, 8, n, t)


def test_responder_sample_small_networks_fall_back_to_everyone():
    # when 2t+1 >= n-1 the sample is simply everyone but the requester
    assert responder_sample(1, 2, 5, 2) == (0, 1, 3, 4)
    assert sample_size(5, 2) == 4


# ------------------------------------------------- broadcast certification

def test_broadcast_destination_accepted_for_any_receiver(perf):
    public, states, keys = build_uls_states(GROUP, SCHEME, 5, 2, seed=9)
    raw = tuple(certify(SCHEME, keys[0], ("payload",), 0, BROADCAST, 4))
    for receiver in range(1, 5):
        accepted = ver_cert(SCHEME, public, receiver, 0, 0, 4, raw)
        assert accepted is not None
        assert accepted.message == ("payload",)
    # time/source checks are untouched: replays and forgeries still die
    assert ver_cert(SCHEME, public, 1, 0, 0, 5, raw) is None  # wrong round
    assert ver_cert(SCHEME, public, 1, 0, 1, 4, raw) is None  # wrong unit
    assert ver_cert(SCHEME, public, 1, 2, 0, 4, raw) is None  # wrong source


def test_point_to_point_destination_still_narrow(perf):
    public, states, keys = build_uls_states(GROUP, SCHEME, 5, 2, seed=9)
    raw = tuple(certify(SCHEME, keys[0], ("payload",), 0, 2, 4))
    assert ver_cert(SCHEME, public, 2, 0, 0, 4, raw) is not None
    assert ver_cert(SCHEME, public, 3, 0, 0, 4, raw) is None


def test_ver_cert_many_matches_ver_cert_on_broadcast(perf):
    public, states, keys = build_uls_states(GROUP, SCHEME, 5, 2, seed=9)
    bcast = tuple(certify(SCHEME, keys[0], ("b",), 0, BROADCAST, 4))
    direct = tuple(certify(SCHEME, keys[1], ("d",), 1, 3, 4))
    items = [(0, bcast), (1, direct), (2, bcast)]
    for receiver in (2, 3):
        batched = ver_cert_many(SCHEME, public, receiver, 0, 4, items)
        single = [
            ver_cert(SCHEME, public, receiver, source, 0, 4, raw)
            for source, raw in items
        ]
        assert [m is not None for m in batched] == [m is not None for m in single]
    # the mis-attributed broadcast (alleged source 2, signed by 0) is rejected
    assert ver_cert_many(SCHEME, public, 2, 0, 4, items)[2] is None


# --------------------------------------------------- volume + outcome parity

def test_msgs_per_refresh_halved_with_identical_outcomes(perf):
    programs_paper, execution_paper = _run_uls(7, 2, seed=5, wire="paper")
    paper = message_stats(execution_paper).per_refresh_phase
    programs_agg, execution_agg = _run_uls(7, 2, seed=5, wire="aggregated")
    aggregated = message_stats(execution_agg).per_refresh_phase

    assert aggregated * 2 <= paper, (aggregated, paper)
    assert outcome_digest(execution_agg) == outcome_digest(execution_paper)
    assert _outcomes(programs_agg, execution_agg) == \
        _outcomes(programs_paper, execution_paper)
    for program in programs_agg:
        assert program.keystore.history == [(1, "ok")]
        assert program.state.share_is_valid()


@pytest.mark.parametrize("seed", [101, 113, 17])
def test_chaos_outcome_parity(perf, seed):
    """E13-style chaos: break-ins, drops and forgeries from a seeded fault
    plan produce identical protocol outcomes on either wire."""
    plan = FaultPlan.generate(seed=seed, n=5, t=2, schedule=uls_schedule(), units=3)

    def run(wire):
        programs, execution = _run_uls(5, 2, seed, FaultInjectionAdversary(plan),
                                       units=3, wire=wire)
        return _outcomes(programs, execution)

    assert run("aggregated") == run("paper")


# -------------------------------------------------- sampled-help escalation

class _HelpBlocker(Adversary):
    """Corrupts one node's share during unit 0, then starves its unit-1
    share recovery by dropping everything addressed to it from the
    recovery steps of that refresh phase on (the commitment sync still
    arrives; the help values never do)."""

    def __init__(self, victim: int) -> None:
        self.victim = victim
        self._corrupted = False

    def on_round(self, api, info, traffic):
        if (
            not self._corrupted
            and info.phase is Phase.NORMAL
            and info.time_unit == 0
        ):
            self._corrupted = True
            program = api.break_into(self.victim)
            share = program.core.state.share
            program.core.state.share = Share(
                x=share.x, value=(share.value + 1) % GROUP.q
            )
            api.leave(self.victim)

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        if (
            info.phase is Phase.REFRESH
            and info.time_unit == 1
            and info.index_in_phase >= _O_PART2 + 3
        ):
            plan[self.victim] = []
        return plan


def _run_escalation(wire: str, spy_needs, spy_blinds):
    needs, blinds = [], []
    spy_needs.append(needs)
    spy_blinds.append(blinds)
    programs, execution = _run_uls(
        7, 2, seed=23, adversary=_HelpBlocker(victim=6), units=3, wire=wire
    )
    return programs, execution, needs, blinds


@pytest.fixture
def refresh_spies(monkeypatch):
    """Record every accepted rf-need body and every accepted blind's
    (unit, requester, dealer) across all nodes, per run."""
    need_runs: list[list] = []
    blind_runs: list[list] = []
    original_need = RefreshService._on_need
    original_blind = RefreshService._on_blind

    def spy_need(self, sender, body, phase):
        if need_runs:
            need_runs[-1].append(tuple(body))
        return original_need(self, sender, body, phase)

    def spy_blind(self, ctx, dealer, body, phase):
        if blind_runs:
            blind_runs[-1].append((body[1], body[2], dealer))
        return original_blind(self, ctx, dealer, body, phase)

    monkeypatch.setattr(RefreshService, "_on_need", spy_need)
    monkeypatch.setattr(RefreshService, "_on_blind", spy_blind)
    return need_runs, blind_runs


def test_sampled_help_escalates_to_full_fanout(perf, refresh_spies):
    need_runs, blind_runs = refresh_spies
    programs, execution, needs, blinds = _run_escalation(
        "aggregated", need_runs, blind_runs
    )
    victim = programs[6]
    # unit 1: recovery starved -> failed + alert; the service marks the unit
    assert 1 in victim.core.alert_units
    # unit 2: the request escalated to full fan-out...
    assert ("rf-need", 2, "esc") in needs
    assert ("rf-need", 1, "esc") not in needs
    # ...visible in who dealt blinds: the unit-1 request drew only the
    # 2t+1 sampled responders, the escalated unit-2 request drew everyone
    dealers_by_unit = {
        unit: {dealer for u, requester, dealer in blinds
               if u == unit and requester == 6}
        for unit in (1, 2)
    }
    assert dealers_by_unit[1] == set(responder_sample(1, 6, 7, 2))
    assert len(dealers_by_unit[1]) == 5
    assert dealers_by_unit[2] == set(range(6))
    # ...and the node is whole again
    assert victim.state.share_is_valid()
    assert victim.core.refresher._escalate_from_unit is None
    assert 2 not in victim.core.alert_units


def test_escalation_scenario_outcome_parity(perf, refresh_spies):
    """The same starved-recovery scenario ends identically either way:
    failed at unit 1, recovered at unit 2 — escalation restores exactly
    the paper wire's liveness."""
    need_runs, blind_runs = refresh_spies
    programs_agg, execution_agg, _, _ = _run_escalation(
        "aggregated", need_runs, blind_runs
    )
    programs_paper, execution_paper, needs_paper, _ = _run_escalation(
        "paper", need_runs, blind_runs
    )
    assert _outcomes(programs_agg, execution_agg) == \
        _outcomes(programs_paper, execution_paper)
    assert outcome_digest(execution_agg) == outcome_digest(execution_paper)
    # the paper wire never escalates (every request is full fan-out already)
    assert not any(len(body) >= 3 and body[2] == "esc" for body in needs_paper)


# ------------------------------------------------------------ bounded state

def test_per_unit_state_stays_bounded_across_refreshes(perf):
    n, units = 5, 4
    programs, execution = _run_uls(5, 2, seed=11, units=units, wire="aggregated")
    last = units - 1
    for program in programs:
        core = program.core
        # refresh phases completed clean and released their state
        assert program.keystore.history == [(u, "ok") for u in range(1, units)]
        assert core.refresher._phase is None
        # PA: decided sessions older than the previous unit are gone
        assert core.pa.sessions, "sanity: PA ran"
        assert all(
            session.unit >= last - 1 or not session.decided
            for session in core.pa.sessions.values()
        )
        assert len(core.pa.sessions) <= 2 * n
        # signer: done/failed sessions retire after one unit of grace
        assert core.signer.sessions, "sanity: signer ran"
        assert all(
            session.unit >= last - 1
            for session in core.signer.sessions.values()
            if session.done or session.failed
        )
        assert len(core.signer.sessions) <= 2 * n + 2
        assert all(u >= last - 2 for u in core.signer._retired.values())
        # AUTH-SEND: the accepted log only spans current + previous unit
        floor = core.transport._unit_first_round.get(last - 1, 0)
        assert all(entry[0] >= floor for entry in core.transport.accepted_log)
        assert len(core.transport._unit_first_round) <= 2
        # ULS: no signature request left pending forever
        assert program._pending == {}


def test_failed_signings_release_pending_state(perf):
    """A signing request that can never complete is dropped from
    ``UlsProgram._pending`` with an explicit ``sign-failed`` output
    instead of leaking for the rest of the run."""
    programs, runner = _build_uls(5, 2, seed=3, wire="aggregated")
    schedule = runner.schedule
    # only one node asks: t+1 = 3 partials never materialize
    runner.add_external_input(0, schedule.first_normal_round(0), ("sign", "solo"))
    execution = runner.run(units=2)
    assert programs[0]._pending == {}
    assert ("sign-failed", "solo", 0) in execution.outputs_of(0)
    assert ("solo", 0) not in programs[0].signatures


# ------------------------------------------------- per-channel counters

def test_compact_records_carry_channel_counts(perf):
    _, full = _run_uls(5, 2, seed=7, wire="aggregated")
    _, compact = _run_uls(5, 2, seed=7, wire="aggregated", compact_records=True)

    assert len(full.records) == len(compact.records)
    for full_record, compact_record in zip(full.records, compact.records):
        assert full_record.sent_by_channel == compact_record.sent_by_channel
        assert sum(compact_record.sent_by_channel.values()) == \
            compact_record.sent_count
    full_stats = message_stats(full)
    compact_stats = message_stats(compact)
    assert full_stats == compact_stats
    assert compact_stats.by_channel  # non-trivial traffic was counted


# ------------------------------------------------- one process, two wires

def _interleave(runners, units):
    """Run several networks round by round in lockstep — ``Runner.run``
    for each, with their rounds alternating."""
    for runner in runners:
        runner.adversary.begin(runner.n, runner.schedule, runner.randomness.adversary())
    for round_number in range(runners[0].schedule.total_rounds(units)):
        for runner in runners:
            runner._run_round(runner.schedule.info(round_number))
    for runner in runners:
        runner.execution.adversary_output.extend(runner.adversary.finish())
    return [runner.execution for runner in runners]


def test_paper_and_aggregated_networks_interleave(perf):
    """The wire is per instance: a paper network and an aggregated one
    stepped alternately in one process each reproduce their solo run."""
    wires = ("paper", "aggregated")

    def build(wire):
        programs, runner = _build_uls(5, 2, seed=9, wire=wire)
        for node in range(5):
            runner.add_external_input(node, runner.schedule.first_normal_round(0),
                                      ("sign", "interleaved"))
        return runner

    solo = {wire: build(wire).run(units=2) for wire in wires}
    together = dict(zip(wires, _interleave([build(wire) for wire in wires], units=2)))
    for wire in wires:
        assert outcome_digest(together[wire]) == outcome_digest(solo[wire]), wire
        assert transcript_digest(together[wire]) == transcript_digest(solo[wire]), wire
    # the two wires really differ on the wire, and agree on the outcome
    assert ("signed", "interleaved", 0) in solo["aggregated"].outputs_of(0)
    assert transcript_digest(solo["paper"]) != transcript_digest(solo["aggregated"])
    assert outcome_digest(solo["paper"]) == outcome_digest(solo["aggregated"])


def test_unknown_wire_is_rejected():
    with pytest.raises(ValueError, match="wire"):
        _build_uls(5, 2, seed=1, wire="aggregate")
