"""The aggregated refresh wire (``wire="aggregated"``): parity.

The aggregated wire changes *which* envelopes carry the protocols —
AUTH-SEND certifies one pack per node, destination and round, a send to
every node is one DISPERSE to ``BROADCAST``, and PARTIAL-AGREEMENT step 3
forwards one pack of the round's distinct packs — so unlike every perf
optimisation, transcript-digest parity with the paper wire is impossible
by construction.  What these tests pin down instead is the contract
docs/PROTOCOLS.md §12 states:

* **outcome parity** — node outputs, system log, blame records
  (``rejected_dealers`` / ``rejected_partials``), key histories and
  certified key reprs are bit-identical on either wire, under seeded
  E13-style chaos, a starved share recovery and a split among recovery
  helpers as well as in the all-honest case;
* **volume** — a benign refresh sends exactly the closed form of
  :func:`~repro.analysis.metrics.expected_msgs_per_refresh` on each wire;
* **the round's sends leave** — what a node sends after ``core.on_round``
  (a USign request, Λ's π) leaves at ``end_round``, and a buffer left
  from an earlier round is dropped unsent;
* **one recovery path** — every intact node helps a share recovery on
  either wire, so no wire recovers a share the other loses;
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
from repro.analysis.metrics import expected_msgs_per_refresh, message_stats
from repro.analysis.verdict import verdict
from repro.core.auth_send import AUTH_TAG
from repro.core.authenticator import compile_protocol
from repro.core.certify import certify, ver_cert, ver_cert_many
from repro.core.disperse import DISPERSE_CHANNEL, DisperseService, forwarding
from repro.core.uls import UlsProgram, _O_PART2, build_uls_states, uls_schedule
from repro.crypto.feldman import FeldmanDealer
from repro.crypto.field import Polynomial
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.crypto.shamir import Share
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.clock import Phase
from repro.sim.node import NodeProgram
from repro.sim.runner import ULRunner
from repro.wire import BROADCAST, PACK, well_formed

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

#: envelopes per benign refresh (t = 2, 2 units, seed 0) by (wire, n, f)
EXACT_MSGS_PER_REFRESH = {
    ("paper", 5, 4): 4_080, ("paper", 5, 3): 2_920,
    ("paper", 7, 6): 18_060, ("paper", 7, 3): 8_232,
    ("aggregated", 5, 4): 920, ("aggregated", 5, 3): 680,
    ("aggregated", 7, 6): 2_940, ("aggregated", 7, 3): 1_428,
}


@pytest.mark.parametrize("n,f", [(5, 4), (5, 3), (7, 6), (7, 3)],
                         ids=["n5-full", "n5-f3", "n7-full", "n7-f3"])
def test_benign_refresh_sends_the_closed_form(perf, wire, n, f):
    """A benign refresh sends exactly the closed form's envelopes; a full
    flood is relay fanout ``n − 1``."""
    _, states, keys = build_uls_states(GROUP, SCHEME, n, 2, seed=0)
    relay_fanout = None if f == n - 1 else f
    programs = [UlsProgram(states[i], SCHEME, keys[i], relay_fanout=relay_fanout, wire=wire)
                for i in range(n)]
    execution = ULRunner(programs, PassiveAdversary(), uls_schedule(), s=2, seed=0).run(units=2)
    assert all(program.keystore.history == [(1, "ok")] for program in programs)
    msgs = message_stats(execution).per_refresh_phase
    assert msgs == expected_msgs_per_refresh(n, f, wire) == EXACT_MSGS_PER_REFRESH[wire, n, f]


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


# ------------------------------------------------- the round's sends leave

@pytest.fixture
def auth_sends(monkeypatch):
    """Every AUTH-SEND DISPERSE of a run: ``(round, sender, receiver, body)``."""
    sends = []
    send = DisperseService.send

    def recording(self, ctx, receiver, body, tag="", retransmit=None):
        if tag == AUTH_TAG:
            sends.append((ctx.info.round, ctx.node_id, receiver, body.message))
        send(self, ctx, receiver, body, tag, retransmit)

    monkeypatch.setattr(DisperseService, "send", recording)
    return sends


def test_usign_request_after_on_round_leaves_at_end_round(perf, auth_sends):
    """A USign request joins the signing after ``core.on_round``; on the
    aggregated wire its deals leave that round, one pack to each other
    node, and the message gets signed."""
    programs, runner = _build_uls(5, 2, seed=9, wire="aggregated")
    ask = runner.schedule.first_normal_round(0) + 1
    for node in range(3):
        runner.add_external_input(node, ask, ("sign", "late"))
    execution = runner.run(units=1)
    for node in range(3):
        packs = {receiver: body for when, sender, receiver, body in auth_sends
                 if when == ask and sender == node}
        assert sorted(packs) == [other for other in range(5) if other != node]
        for body in packs.values():
            assert well_formed(body, PACK)
            assert [member[0] for member in body[1]] == ["ts-deal"]
        assert ("signed", "late", 0) in execution.outputs_of(node)


class _SendsInNormalRound(NodeProgram):
    """π for Λ: node 0 sends node 1 one message in its first normal round."""

    def step(self, ctx, inbox):
        if self.node_id == 0 and ctx.info.phase is Phase.NORMAL and ctx.info.index_in_phase == 0:
            ctx.send(1, "chat", ("hello", ctx.info.round))


def test_lambda_send_after_on_round_leaves_at_end_round(perf):
    """π runs after ``core.on_round``; on the aggregated wire its send
    leaves at ``end_round`` and node 1 receives it two rounds later."""
    _, states, keys = build_uls_states(GROUP, SCHEME, 5, 2, seed=2)
    programs = compile_protocol([_SendsInNormalRound() for _ in range(5)], states, SCHEME,
                                keys, wire="aggregated")
    schedule = uls_schedule()
    execution = ULRunner(programs, PassiveAdversary(), schedule, s=2, seed=2).run(units=1)
    sent = schedule.first_normal_round(0)
    assert (sent + 2, ("app-recv", 0, "chat", ("hello", sent))) in \
        execution.node_outputs[1]


def test_sends_before_the_key_switch_keep_their_keys(perf):
    """A USign session asked at refresh offset 9 of unit 1 sends its
    partials in the key-switch round, before the switch.  The paper wire
    certifies them with the outgoing keys, which no receiver accepts
    after the switch, so the signing fails; the aggregated wire flushes
    before installing the new keys and ends the same way."""
    outcomes = {}
    for wire in ("paper", "aggregated"):
        programs, runner = _build_uls(5, 2, seed=3, wire=wire)
        ask = runner.schedule.refresh_start(1) + 9
        for node in range(5):
            runner.add_external_input(node, ask, ("sign", "at-switch"))
        execution = runner.run(units=2)
        assert ("sign-failed", "at-switch", 1) in execution.outputs_of(0), wire
        outcomes[wire] = _outcomes(programs, execution)
    assert outcomes["aggregated"] == outcomes["paper"]


class _StuffsBuffer(Adversary):
    """Breaks node 4 at its turn in the first normal round and releases it
    the next round; with ``stuff``, it leaves in node 4's AUTH-SEND buffers
    bodies it never sent, one of which CERTIFY cannot encode."""

    def __init__(self, stuff):
        self.stuff = stuff

    def on_round(self, api, info, traffic):
        if info.phase is not Phase.NORMAL or info.time_unit != 0:
            return
        if info.index_in_phase == 0:
            transport = api.break_into(4).core.transport
            if self.stuff:
                transport._outbox = {0: [("app", object())], BROADCAST: [("rf-need", 0)]}
                transport._forwards = {b"junk": ("junk",)}
        elif info.index_in_phase == 1:
            api.leave(4)


def test_begin_round_drops_a_stale_buffer(perf):
    """A broken node's memory is the adversary's (§2.2): whatever it left
    in the buffers is dropped at the node's next ``begin_round``, neither
    sent nor raised on, so the run is the same break-in's without it."""
    runs = {}
    for stuff in (False, True):
        programs, execution = _run_uls(5, 2, seed=4, adversary=_StuffsBuffer(stuff),
                                       units=2, wire="aggregated")
        runs[stuff] = (transcript_digest(execution), _outcomes(programs, execution))
    assert runs[True] == runs[False]


# ------------------------------------------------- one share-recovery path

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


def test_escalation_scenario_outcome_parity(perf):
    """The same starved-recovery scenario ends identically either way:
    failed at unit 1, recovered at unit 2, when every intact node helps
    again."""
    paper, aggregated = (
        _run_uls(7, 2, seed=23, adversary=_HelpBlocker(victim=6), units=3, wire=wire)
        for wire in ("paper", "aggregated")
    )
    assert _outcomes(*aggregated) == _outcomes(*paper)
    assert outcome_digest(aggregated[1]) == outcome_digest(paper[1])
    for programs, _ in (paper, aggregated):
        assert programs[6].core.alert_units == [1]
        assert programs[6].state.share_is_valid()


class _BlindSplitter(Adversary):
    """Splits the helpers of one share recovery by the blinds they hold.

    Node 6 is broken for one round of unit 0 and its share value raised
    by 1, so it asks for help in unit 1's Part (II), which starts at round
    ``P``.  At its turn in round ``P + 3`` the adversary breaks node 1,
    which therefore skips the blind step (``P + 4``) and the help step
    (``P + 6``); with node 1's keys it certifies a blind for node 6 as of
    round ``P + 4`` and delivers it to nodes 2 and 3 only; it releases
    node 1 at ``P + 7``.  Nodes 2 and 3 then help with one blind set and
    the other intact nodes with another, and only a side of ``t + 1 = 3``
    helpers recovers the share."""

    victim, thief, split = 6, 1, (2, 3)

    def begin(self, n, schedule, rng):
        super().begin(n, schedule, rng)
        self.corrupt = schedule.first_normal_round(0) + 1
        self.part2 = schedule.refresh_start(1) + _O_PART2

    def on_round(self, api, info, traffic):
        if info.round == self.corrupt:
            state = api.break_into(self.victim).core.state
            state.share = Share(x=state.share.x, value=(state.share.value + 1) % GROUP.q)
        elif info.round == self.corrupt + 1:
            api.leave(self.victim)
        elif info.round == self.part2 + 3:
            api.break_into(self.thief)
        elif info.round == self.part2 + 7:
            api.leave(self.thief)

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        if info.round != self.part2 + 5:
            return plan
        program = api.program_of(self.thief)
        # b(z) = z^2 - 7^2: degree t = 2, and b(7) = 0 at node 6's index
        target = self.victim + 1
        blind = Polynomial(GROUP.scalar_field, [-target * target % GROUP.q, 0, 1])
        elements = tuple(FeldmanDealer(GROUP, n=api.n, threshold=2).commit(blind).elements)
        for helper in self.split:
            body = ("rf-blind", 1, self.victim, elements, blind.evaluate(helper + 1))
            raw = certify(SCHEME, program.keystore.current, body, self.thief, helper,
                          self.part2 + 4)
            plan[helper].append(api.forge_envelope(
                self.thief, helper, DISPERSE_CHANNEL,
                forwarding(AUTH_TAG, self.thief, helper, raw)))
        return plan


#: the paper wire's outcome of the blind split; a wire that asked only a
#: sample of 2t + 1 helpers (nodes 1-5 here: 2 intact ones on each side)
#: would alert instead
BLIND_SPLIT_OUTCOME = "fdb0767980d2a0295adc4fef9ad767e3618447d1ad993fc2a54740ef70e37f4b"


def test_blind_split_outcome_parity(perf):
    """Every intact node helps on either wire, so node 0 joins the side
    of nodes 4 and 5 and node 6 recovers in unit 1 without an alert, with
    the paper wire's outcome on both wires and a clean verdict within
    Definition 7."""
    outcomes = {}
    for wire in ("paper", "aggregated"):
        programs, execution = _run_uls(7, 2, seed=5, adversary=_BlindSplitter(), units=3,
                                       wire=wire)
        report = verdict(execution, 2, programs)
        assert report.clean and report.within_model, (wire, report.problems())
        assert programs[6].core.alert_units == [], wire
        assert programs[6].state.share_is_valid(), wire
        assert outcome_digest(execution) == BLIND_SPLIT_OUTCOME, wire
        outcomes[wire] = _outcomes(programs, execution)
    assert outcomes["aggregated"] == outcomes["paper"]


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
