"""PARTIAL-AGREEMENT step 4 verifies only what can change it.

Fig. 5 step 4 verifies the certified inputs other nodes forwarded in
step 3, to mark as a cheater any author caught with two properly
certified values (Lemma 16's equivocation evidence).  An input whose
(author, value) pair the node already holds in certified form could only
confirm or reject that pair, and recording it changes nothing, so the
service skips it unverified.  Three angles:

* whole ULS refreshes against the reference below, which verifies every
  forwarded input: the same decisions, the same records and the same
  outcome, with and without faults, a key split and an equivocating
  broken author;
* step 4 driven directly with real certified inputs, counting the
  verifications;
* the count over a passive refresh: one check per session and node,
  ``n²``, where verifying every input makes ``n²(n−1)²``.
"""

import dataclasses

import pytest

import repro.core.partial_agreement as partial_agreement
from repro.analysis.digest import outcome_digest
from repro.core.certify import CertifiedMessage, certify, verify_certified_body
from repro.core.disperse import DISPERSE_CHANNEL
from repro.core.partial_agreement import PartialAgreementService, _value_key
from repro.core.uls import NEWKEY_CHANNEL, UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.faults import FaultInjectionAdversary, FaultPlan
from repro.perf import clear_all_caches
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.clock import Phase, Schedule
from repro.sim.node import NodeContext
from repro.sim.runner import ULRunner
from repro.wire import CERTIFIED, PA1, PA3, fits, well_formed

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
SCHED = uls_schedule()
SEED = 7


class _VerifyEveryInput(PartialAgreementService):
    """The reference: step 4 verifies every forwarded input it has not
    verified before, whether or not the pair is held already."""

    def _ingest_step3(self, ctx):
        for _claimed_src, body in self.disperse.receipts("pa3"):
            raws = body[1] if well_formed(body, PA3) else (body,)
            for raw in raws:
                if not (fits(raw, CERTIFIED) and well_formed(raw[0], PA1)):
                    continue
                _, pa_id, value = raw[0]
                try:
                    session = self.sessions.get(pa_id)
                except TypeError:
                    continue
                if session is None:
                    continue
                raw_key = _value_key(raw)
                if raw_key in session.verified_raws:
                    continue
                session.verified_raws.add(raw_key)
                msg = verify_certified_body(
                    self.transport.keystore.scheme,
                    self.transport.public,
                    expected_unit=self.transport.keystore.unit,
                    expected_round=session.start_round,
                    raw=raw,
                )
                if msg is None:
                    continue
                self._record(session, msg.source, value, raw)


# ------------------------------------------------------------- adversaries

def _fake_key(api):
    return SCHEME.key_repr(SCHEME.generate(api.rng).verify_key)


class _KeySplit(Adversary):
    """E2's split: cuts the last node off from unit 1 on, and at each
    refresh announcement delivers one fabricated key in its name to the
    first half of the others and another to the rest."""

    def deliver(self, api, info, traffic):
        if info.time_unit < 1:
            return faithful_delivery(traffic, api.n)
        victim = api.n - 1
        plan = {i: [] for i in range(api.n)}
        for envelope in traffic:
            if victim not in (envelope.sender, envelope.receiver):
                plan[envelope.receiver].append(envelope)
        if info.phase is Phase.REFRESH and info.is_phase_start:
            fakes = (_fake_key(api), _fake_key(api))
            for receiver in range(victim):
                plan[receiver].append(api.forge_envelope(
                    victim, receiver, NEWKEY_CHANNEL,
                    ("newkey", info.time_unit, fakes[2 * receiver >= victim])))
        return plan


def _pa1_values(traffic, pa_id):
    """Values of the honest step-1 inputs of session ``pa_id`` on the wire."""
    return [
        envelope.payload[-1].message[2]
        for envelope in traffic
        if envelope.channel == DISPERSE_CHANNEL
        and isinstance(envelope.payload[-1], CertifiedMessage)
        and envelope.payload[-1].message[:2] == ("pa1", pa_id)
    ]


class _EquivocatingAuthor(Adversary):
    """Breaks into the last node as unit 1's refresh announces its keys
    (one break-in, within the (s,t) budget) and keeps it.  In the round
    the others send their step-1 inputs, it certifies node 0's genuine
    key as its own input to session ``("pa", 1, 0)`` for the first half
    of the others and a fabricated key for the rest, so both values meet
    in step 4."""

    PA_ID = ("pa", 1, 0)

    def __init__(self):
        self.sent = 0

    def on_round(self, api, info, traffic):
        author = api.n - 1
        if info.time_unit != 1 or info.phase is not Phase.REFRESH:
            return
        if info.index_in_phase == 0:
            api.break_into(author)
            return
        genuine = _pa1_values(traffic, self.PA_ID)
        if self.sent or not genuine:
            return
        keys = api.program_of(author).keystore.current
        values = (genuine[0], _fake_key(api))
        for destination in range(author):
            body = ("pa1", self.PA_ID, values[2 * destination >= author])
            msg = certify(SCHEME, keys, body, author, destination, info.round)
            for relay in range(author):
                api.send_as(author, relay, DISPERSE_CHANNEL,
                            ("fwd", "auth", author, destination, msg))
        self.sent += 1


def _fault_plan(seed):
    return lambda n: FaultInjectionAdversary(
        FaultPlan.generate(seed=seed, n=n, t=(n - 1) // 2, schedule=SCHED, units=2))


#: name -> adversary for a network of ``n`` nodes
ADVERSARIES = {
    "passive": lambda n: PassiveAdversary(),
    "fault-plan-1": _fault_plan(1),
    "fault-plan-2": _fault_plan(2),
    "key-split": lambda n: _KeySplit(),
    "equivocating-author": lambda n: _EquivocatingAuthor(),
}


# --------------------------------------------------- whole refreshes

@pytest.fixture
def decisions(monkeypatch):
    """Every PA decision of a run, as ``(node, round, pa_id, value)``."""
    log = []
    on_round = PartialAgreementService.on_round

    def recorded(self, ctx):
        on_round(self, ctx)
        log.extend((ctx.node_id, ctx.info.round, pa_id, value)
                   for pa_id, value in self._outputs)

    monkeypatch.setattr(PartialAgreementService, "on_round", recorded)
    return log


def _refresh(n, wire, adversary, service_class, monkeypatch):
    clear_all_caches()
    t = (n - 1) // 2
    _, states, keys = build_uls_states(GROUP, SCHEME, n, t, seed=SEED)
    with monkeypatch.context() as patch:
        patch.setattr(partial_agreement, "PartialAgreementService", service_class)
        programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(n)]
    assert all(type(program.core.pa) is service_class for program in programs)
    execution = ULRunner(programs, adversary, SCHED, s=t, seed=SEED).run(units=2)
    # per node and session: author -> value key -> key of the certified
    # form on record, or None
    records = [
        {pa_id: {author: {key: raw and _value_key(raw) for key, (_, raw) in bucket.items()}
                 for author, bucket in session.records.items()}
         for pa_id, session in program.core.pa.sessions.items()}
        for program in programs
    ]
    return outcome_digest(execution), records, programs


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
@pytest.mark.parametrize("n", [5, 7])
def test_refresh_matches_verifying_every_input(wire, n, name, decisions, monkeypatch):
    reference = _refresh(n, wire, ADVERSARIES[name](n), _VerifyEveryInput, monkeypatch)
    reference_decisions = list(decisions)
    decisions.clear()
    adversary = ADVERSARIES[name](n)
    digest, records, programs = _refresh(
        n, wire, adversary, PartialAgreementService, monkeypatch)
    assert reference_decisions and decisions == reference_decisions
    assert (digest, records) == reference[:2]
    if name == "equivocating-author":
        assert adversary.sent == 1
        author = n - 1
        assert any(  # step 4 caught the author with two certified values
            len(program.core.pa.sessions[_EquivocatingAuthor.PA_ID].records[author]) == 2
            for program in programs[:author]
        )


# ------------------------------------------------ step 4 driven directly

N = 5


class _Forwarded:
    """DISPERSE as step 4 reads it: these step-3 receipts, nothing else."""

    def __init__(self, raws):
        self.raws = raws

    def receipts(self, tag):
        return [(1, raw) for raw in self.raws] if tag == "pa3" else []


@pytest.fixture
def verified(monkeypatch):
    """The raws step 4 hands to ``verify_certified_body``, in order."""
    calls = []

    def counting(*args, raw, **kwargs):
        calls.append(raw)
        return verify_certified_body(*args, raw=raw, **kwargs)

    monkeypatch.setattr(partial_agreement, "verify_certified_body", counting)
    return calls


def _forged(msg):
    """``msg`` with its signature's response off by one."""
    signature = dataclasses.replace(msg.signature, response=msg.signature.response + 1)
    return CertifiedMessage(msg[:5] + (signature,) + msg[6:])


def test_step4_verifies_only_new_pairs(verified):
    clear_all_caches()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, 2, seed=SEED)
    service = UlsProgram(states[0], SCHEME, keys[0]).core.pa
    start = 3
    ctx = NodeContext(0, N, Schedule(1, 1, 5).info(start), None, None, [])
    pa_id = ("pa", 0, 4)
    service.start(ctx, pa_id, "mine")
    session = service.sessions[pa_id]

    def certified(author, value, destination):
        return certify(SCHEME, keys[author], ("pa1", pa_id, value), author, destination, start)

    # step 1: node 0 accepted "v" from authors 1 and 2
    for author in (1, 2):
        service._record(session, author, "v", certified(author, "v", 0))
    held_forged = _forged(certified(1, "v", 3))
    new_valid = certified(2, "w", 3)
    new_forged = _forged(certified(1, "w", 3))
    own, own_again = certified(0, "mine", 1), certified(0, "mine", 2)
    service.disperse = _Forwarded([held_forged, new_valid, new_forged, own, own_again])
    service._ingest_step3(ctx)

    # the held pair is skipped however its signature reads; every new
    # pair is verified, the node's own input once
    assert verified == [new_valid, new_forged, own]
    assert service._cheaters(session) == {2}
    assert session.records[2][_value_key("w")] == ("w", new_valid)
    assert list(session.records[1]) == [_value_key("v")]
    assert session.records[0][_value_key("mine")] == ("mine", own)


# -------------------------------------------------------------- the count

def test_passive_refresh_makes_one_check_per_session_and_node(wire, verified):
    """``n`` sessions, one per announced key, and one check each per node:
    for the node's own input, which it holds uncertified.  The reference,
    verifying every forwarded input, makes ``n²(n−1)²`` = 400 on the
    paper wire."""
    clear_all_caches()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, 2, seed=SEED)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    ULRunner(programs, PassiveAdversary(), SCHED, s=2, seed=SEED).run(units=2)
    assert len(verified) == N * N
