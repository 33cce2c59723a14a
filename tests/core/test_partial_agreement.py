"""Unit and integration tests for PARTIAL-AGREEMENT (Fig. 5)."""

import pytest

from repro.core.certify import CertifiedMessage, certify
from repro.core.disperse import DISPERSE_CHANNEL, DisperseService
from repro.core.auth_send import _pack
from repro.core.partial_agreement import NO_VALUE, PartialAgreementService, _Session
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.hashing import encode_for_hash
from repro.crypto.schnorr import SchnorrScheme
from repro.perf import clear_all_caches
from repro.perf.cache import canonical_body_key, canonical_probe
from repro.sim.adversary_api import Adversary, PassiveAdversary
from repro.sim.clock import Phase
from repro.sim.runner import ULRunner
from repro.wire import BROADCAST, PA3, well_formed
from tests.core.test_partial_agreement_step4 import _EquivocatingAuthor, _fake_key, _pa1_values

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


def make_service(n=5, wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, n, (n - 1) // 2, seed=3)
    program = UlsProgram(states[0], SCHEME, keys[0], wire=wire)
    return program.core.pa


def session_with_records(records):
    """records: {author: [value, ...]}"""
    session = _Session(start_round=0, my_input=NO_VALUE)
    for author, values in records.items():
        for value in values:
            bucket = session.records.setdefault(author, {})
            bucket[repr(value)] = (value, None)
    return session


def test_cheater_detection():
    service = make_service()
    session = session_with_records({0: ["a", "b"], 1: ["a"], 2: ["a"]})
    assert service._cheaters(session) == {0}


def test_step5_majority_survives():
    service = make_service()  # majority = ceil((5+1)/2) = 3
    session = session_with_records({0: ["x"], 1: ["x"], 2: ["x"], 3: ["y"]})
    session.maj_value = "x"
    session.maj_authors = frozenset({0, 1, 2})
    assert service._step5(session) == "x"


def test_step5_cheater_discovery_in_step4_drops_below_majority():
    service = make_service()
    session = session_with_records({0: ["x"], 1: ["x"], 2: ["x"]})
    session.maj_value = "x"
    session.maj_authors = frozenset({0, 1, 2})
    # step 4 reveals author 2 equivocated
    session.records[2]["other"] = ("z", None)
    assert service._step5(session) is NO_VALUE


def test_step5_without_majority_is_phi():
    service = make_service()
    session = session_with_records({0: ["x"], 1: ["y"]})
    assert service._step5(session) is NO_VALUE


def test_majority_threshold_formula():
    # ceil((n+1)/2): 5 -> 3, 6 -> 4, 7 -> 4
    assert make_service(5).majority == 3
    assert make_service(7).majority == 4


def test_duplicate_start_is_idempotent(wire):
    """Starting the same session twice must not double-send (the paper:
    PARTIAL-AGREEMENT is run only once per node per refreshment phase)."""
    from repro.sim.clock import Schedule
    from repro.sim.node import NodeContext

    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=3)
    program = UlsProgram(states[0], SCHEME, keys[0], wire=wire)
    service = program.core.pa
    sched = Schedule(1, 1, 5)
    ctx = NodeContext(0, N, sched.info(3), None, None, [])
    service.start(ctx, "dup", ("value",))
    program.core.end_round(ctx)  # the aggregated wire sends here
    sent_before = len(ctx.outbox)
    assert sent_before > 0
    service.start(ctx, "dup", ("other",))
    program.core.end_round(ctx)
    assert len(ctx.outbox) == sent_before  # second start ignored


def test_all_nodes_agree_on_genuine_keys_end_to_end(wire):
    """Integration: in a benign refresh, every node's PA outputs for every
    target coincide and match the target's announced key."""
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=6)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    runner = ULRunner(programs, PassiveAdversary(), SCHED, s=T, seed=6)
    runner.run(units=2)
    for target in range(N):
        expected = programs[target].keystore.key_reprs[1]
        for program in programs:
            session = program.core.pa.sessions.get(("pa", 1, target))
            assert session is not None
            value = program.core.pa._step5(session)
            assert tuple(value) == tuple(expected)


# ------------------------------------------------------ step 3 on the wire

@pytest.fixture
def pa3_sends(monkeypatch):
    """Every step-3 DISPERSE send of a run, as ``(forwarder, receiver, body)``."""
    sends = []
    send = DisperseService.send

    def recording(self, ctx, receiver, body, tag="", retransmit=None):
        if tag == "pa3":
            sends.append((ctx.node_id, receiver, body))
        send(self, ctx, receiver, body, tag, retransmit)

    monkeypatch.setattr(DisperseService, "send", recording)
    return sends


def _refresh(n, wire, adversary=None, relay_fanout=None):
    """A network's first refresh; returns its programs."""
    t = 2
    public, states, keys = build_uls_states(GROUP, SCHEME, n, t, seed=6)
    programs = [UlsProgram(states[i], SCHEME, keys[i], relay_fanout=relay_fanout, wire=wire)
                for i in range(n)]
    ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=t, seed=6).run(units=2)
    return programs


def test_paper_wire_step3_sends_one_pack_per_session_and_receiver(pa3_sends):
    """At n = 13 each forwarder sends each session's forwards to each other
    node as one pack holding its n − 1 certified inputs: n − 1 sends per
    session and forwarder, n²(n − 1) = 2,028 in the refresh (one per
    forwarded message and receiver made n²(n − 1)² = 24,336)."""
    n = 13
    programs = _refresh(n, "paper", relay_fanout=5)
    assert len(pa3_sends) == n * n * (n - 1) == 2028
    receivers = {}
    for forwarder, receiver, body in pa3_sends:
        assert well_formed(body, PA3)
        (pa_id,) = {raw.message[1] for raw in body[1]}
        assert sorted(raw.source for raw in body[1]) == [a for a in range(n) if a != forwarder]
        receivers.setdefault((forwarder, pa_id), []).append(receiver)
    assert len(receivers) == n * n
    for (forwarder, _), sent_to in receivers.items():
        assert sorted(sent_to) == [node for node in range(n) if node != forwarder]
    assert all(program.keystore.history == [(1, "ok")] for program in programs)


def test_every_receiver_holds_every_maj_pair_certified(wire, pa3_sends):
    """Step 3 delivers every forwarded input: each node ends the refresh
    holding every MAJ member's pair in certified form, its own input
    included, which only a forward can certify."""
    n = 5
    programs = _refresh(n, wire)
    assert pa3_sends and all(well_formed(body, PA3) for _, _, body in pa3_sends)
    for program in programs:
        for target in range(n):
            session = program.core.pa.sessions[("pa", 1, target)]
            assert session.maj_authors == frozenset(range(n))
            for author in session.maj_authors:
                (_, raw), = session.records[author].values()
                assert isinstance(raw, CertifiedMessage) and raw.source == author


def test_equivocating_author_is_marked_a_cheater_from_a_pack(wire, pa3_sends):
    """Lemma 16's evidence: the last node, broken, certifies one value for
    session ``("pa", 1, 0)`` to the first half of the others and another
    to the rest.  Each half takes it into MAJ or not; the half that took
    the genuine value forwards it in a pack, and the other half, holding
    the other value, marks the author a cheater."""
    n = 5
    adversary = _EquivocatingAuthor()
    programs = _refresh(n, wire, adversary)
    assert adversary.sent == 1
    author, pa_id = n - 1, _EquivocatingAuthor.PA_ID
    # _EquivocatingAuthor sends the genuine value to 2d < author
    genuine_half = [d for d in range(author) if 2 * d < author]
    other_half = [d for d in range(author) if 2 * d >= author]
    for node in genuine_half:
        session = programs[node].core.pa.sessions[pa_id]
        assert author in session.maj_authors
        assert author not in programs[node].core.pa._cheaters(session)
    forwarders = {
        forwarder for forwarder, _, body in pa3_sends
        for raw in body[1] if raw.message[1] == pa_id and raw.source == author
    }
    assert forwarders == set(genuine_half)
    for node in other_half:
        session = programs[node].core.pa.sessions[pa_id]
        assert author not in session.maj_authors
        assert author in programs[node].core.pa._cheaters(session)
        assert all(raw is not None for _, raw in session.records[author].values())


class _PackEquivocator(Adversary):
    """Breaks into the last node as unit 1's refresh announces its keys
    and keeps it.  In the round the others send their step-1 inputs, it
    certifies one pack holding two inputs to session ``("pa", 1, 0)``,
    node 0's genuine key and a fabricated one, and disperses it to
    ``BROADCAST``."""

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
        pack = ("pack", tuple(("pa1", self.PA_ID, value)
                              for value in (genuine[0], _fake_key(api))))
        keys = api.program_of(author).keystore.current
        msg = certify(SCHEME, keys, pack, author, BROADCAST, info.round)
        for relay in range(author):
            api.send_as(author, relay, DISPERSE_CHANNEL, ("fwd", "auth", author, BROADCAST, msg))
        self.sent += 1


def test_two_values_in_one_certified_pack_mark_a_cheater(wire):
    """Lemma 16 reads a pack as the bodies it holds: one certified pack
    with two values for one session is two certified values from its
    author, so every honest node marks the author a cheater and leaves it
    out of MAJ."""
    n = 5
    adversary = _PackEquivocator()
    programs = _refresh(n, wire, adversary)
    assert adversary.sent == 1
    author = n - 1
    for program in programs[:author]:
        session = program.core.pa.sessions[_PackEquivocator.PA_ID]
        assert author in program.core.pa._cheaters(session)
        assert author not in session.maj_authors
        values = session.records[author].values()
        assert len(values) == 2 and all(raw is not None for _, raw in values)


def test_pack_dedup_key_is_seeded_with_its_encoding():
    clear_all_caches()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=3)
    raws = [certify(SCHEME, keys[i], ("pa1", ("pa", 1, 0), ("key", i)), i, 0, 4)
            for i in range(1, N)]
    pack = _pack(raws)
    assert pack == ("pa3b", tuple(raws))
    entries, _ = canonical_probe()
    seeded = entries.get(id(pack))
    assert seeded is not None and seeded[0] is pack
    assert seeded[1] == encode_for_hash(pack)
    # a member that cannot be encoded leaves the pack keyed on use
    odd = _pack([raws[0], CertifiedMessage(raws[1][:5] + (1.5,) + raws[1][6:])])
    assert id(odd) not in entries
    assert canonical_body_key(odd) == repr(odd)
