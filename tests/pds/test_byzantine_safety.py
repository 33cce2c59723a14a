"""Safety of the threshold signer under protocol-internal byzantine nodes.

DESIGN.md scopes the PDS's *liveness* to crash/omission faults (full
GJKR-style complaint handling is outside the paper's own scope), but its
*safety* — no forged or malformed signature ever verifies — must hold
against arbitrary in-protocol misbehaviour.  These tests drive broken
nodes that send corrupted dealings, garbage partials and equivocating
commitments, and assert the only two possible outcomes: a valid signature
on the requested message, or no signature at all.

A broken node may also send bodies of any shape at all.  Each malformed
signer or refresh body must be dropped where the receiver takes it, so
the run has the outputs of the same break-in with the body withheld.
"""

import random

import pytest

from repro.crypto.feldman import FeldmanDealer
from repro.pds.harness import PdsNodeProgram, required_refresh_rounds
from repro.pds.keys import deal_initial_states
from repro.pds.threshold_schnorr import pds_message_bytes, verify_pds_signature
from repro.sim.adversary_api import Adversary
from repro.sim.clock import Schedule
from repro.sim.runner import ALRunner

from repro.crypto.group import named_group

GROUP = named_group("toy64")
N, T = 5, 2
SCHED = Schedule(setup_rounds=1, refresh_rounds=required_refresh_rounds(1), normal_rounds=10)
SIGN_ROUND = SCHED.first_normal_round(0)


class ByzantineSigner(Adversary):
    """Breaks one node in the signing round and replays distorted copies
    of the signing traffic it observes: corrupted shares in dealings,
    random partials (one body each or a round's plural ``ts-partials``),
    equivocated commitments to half the nodes, or, once it sees the
    session's acks, partials under every other node's share index.
    ``sent`` counts the distorted bodies sent."""

    def __init__(self, victim: int, mode: str) -> None:
        self.victim = victim
        self.mode = mode
        self.sent = 0

    def _send(self, api, body, to=None, distorted=True) -> None:
        for receiver in range(api.n):
            if receiver != self.victim and (to is None or to(receiver)):
                api.send_as(self.victim, receiver, "pds", body)
                self.sent += distorted

    def on_round(self, api, info, traffic) -> None:
        # the runner calls the adversary from the first normal round on
        if info.round == SIGN_ROUND:
            api.break_into(self.victim)
        if not api.is_broken(self.victim):
            return
        rng = api.rng
        for envelope in traffic:
            if envelope.channel != "pds" or not isinstance(envelope.payload, tuple):
                continue
            payload = envelope.payload
            if payload[0] == "ts-deal" and self.mode == "bad-shares":
                # re-send the observed dealing with corrupted share values
                self._send(api, (payload[0], payload[1], payload[2], payload[3],
                                 rng.randrange(GROUP.q)))
            elif payload[0] == "ts-partial" and self.mode == "bad-partials":
                self._send(api, (payload[0], payload[1], self.victim + 1, payload[3],
                                 rng.randrange(GROUP.q)))
            elif payload[0] == "ts-partials" and self.mode == "bad-partials":
                # the aggregated wire's plural form: (sid, index, qual, value)
                self._send(api, (payload[0], tuple(
                    (sid, self.victim + 1, qual, rng.randrange(GROUP.q))
                    for sid, _index, qual, _value in payload[1]
                )))
            elif payload[0] in ("ts-ack", "ts-acks") and self.mode == "foreign-partials":
                if not self.sent:
                    sid = payload[1] if payload[0] == "ts-ack" else payload[1][0][0]
                    self._send(api, ("ts-partials", tuple(
                        (sid, index, tuple(range(api.n)), 12345)
                        for index in range(1, api.n + 1) if index != self.victim + 1
                    )))
            elif payload[0] == "ts-deal" and self.mode == "equivocate":
                # send two different (valid-looking) commitment vectors to
                # the two halves of the network
                fake_elements = tuple(
                    GROUP.base_power(rng.randrange(GROUP.q))
                    for _ in range(len(payload[3]))
                )
                fake = (payload[0], payload[1], payload[2], fake_elements,
                        rng.randrange(GROUP.q))
                self._send(api, fake, to=lambda receiver: receiver % 2 == 0)
                self._send(api, payload, to=lambda receiver: receiver % 2 == 1,
                           distorted=False)


@pytest.mark.parametrize("mode", ["bad-shares", "bad-partials", "equivocate",
                                  "foreign-partials"])
def test_byzantine_participant_cannot_break_safety(mode, wire):
    public, states = deal_initial_states(GROUP, N, T, random.Random(1))
    programs = [PdsNodeProgram(state, wire=wire) for state in states]
    adversary = ByzantineSigner(victim=4, mode=mode)
    runner = ALRunner(programs, adversary, SCHED, seed=2)
    for i in range(N):
        runner.add_external_input(i, SIGN_ROUND, ("sign", "target"))
    execution = runner.run(units=1)
    assert adversary.sent >= 1

    # outcome 1 or 2: a correct signature, or nothing — never garbage
    for program in programs[:4]:  # honest nodes
        signature = program.signatures.get(("target", 0))
        if signature is not None:
            assert verify_pds_signature(public, "target", 0, signature)
    # and the adversary gained nothing it could present elsewhere:
    # no signature on any *other* message exists
    for program in programs[:4]:
        assert set(program.signatures) <= {("target", 0)}


@pytest.mark.parametrize("mode", ["bad-shares", "bad-partials", "foreign-partials"])
def test_liveness_survives_noise_from_one_byzantine_node(mode, wire):
    """With n - 1 = 4 >= t + 1 honest contributors, the corrupted traffic
    from one byzantine node must not prevent the signature (robustness:
    bad shares and partials are identified by Feldman verification and
    dropped, and a partial under another node's share index is not that
    node's), nor get an honest node blamed."""
    public, states = deal_initial_states(GROUP, N, T, random.Random(3))
    programs = [PdsNodeProgram(state, wire=wire) for state in states]
    adversary = ByzantineSigner(victim=4, mode=mode)
    runner = ALRunner(programs, adversary, SCHED, seed=4)
    for i in range(N):
        runner.add_external_input(i, SIGN_ROUND, ("sign", "robust"))
    runner.run(units=1)
    assert adversary.sent >= 1
    signed = sum(1 for p in programs[:4] if ("robust", 0) in p.signatures)
    assert signed >= T + 1
    signature = next(p.signatures[("robust", 0)] for p in programs[:4]
                     if ("robust", 0) in p.signatures)
    assert verify_pds_signature(public, "robust", 0, signature)
    honest_indices = {program.state.share_index for program in programs[:4]}
    for program in programs[:4]:
        assert not {index for _, index in program.signer.rejected_partials} & honest_indices


# ------------------------------------------------------ malformed bodies

BROKEN = 4

#: name -> (kind of the honest body in whose round node 4 sends, the
#: malformed body it sends node 0, built from that honest body)
MALFORMED = {
    "rf-sync-int-commitment": ("rf-sync", lambda b: ("rf-sync", 1, 5)),
    "rf-zdeal-empty-commitment": ("rf-zdeal", lambda b: ("rf-zdeal", 1, (), 5)),
    "rf-zdeal-int-commitment": ("rf-zdeal", lambda b: ("rf-zdeal", 1, 7, 5)),
    "rf-zack-int-list": ("rf-zack", lambda b: ("rf-zack", 1, 5)),
    "rf-zack-unhashable-dealer": ("rf-zack", lambda b: ("rf-zack", 1, (([1], b"h"),))),
    "rf-zreveal-empty-commitment": ("rf-zreveal", lambda b: ("rf-zreveal", 1, (), ())),
    "rf-zreveal-int-points": ("rf-zreveal", lambda b: ("rf-zreveal", 1, 5, (1, 2, 3))),
    "rf-blind-int-commitment": ("rf-zreveal", lambda b: ("rf-blind", 1, 0, 7, 5)),
    "ts-deal-int-commitment": ("ts-deal", lambda b: ("ts-deal", b[1], b[2], 7, 5)),
    "ts-ack-unhashable-session": ("ts-ack", lambda b: ("ts-ack", [1], ())),
    "ts-ack-int-list": ("ts-ack", lambda b: ("ts-ack", b[1], 5)),
    "ts-ack-unhashable-dealer": ("ts-ack", lambda b: ("ts-ack", b[1], (([1], b"h"),))),
    "ts-reveal-int-points": ("ts-reveal", lambda b: ("ts-reveal", b[1], 5, (1, 2, 3))),
    "ts-partial-unhashable-session": (
        "ts-partial", lambda b: ("ts-partial", [1], 1, (1,), 5)),
    "ts-acks-unhashable-session": ("ts-ack", lambda b: ("ts-acks", (([1], ()),))),
    "ts-partials-unhashable-session": (
        "ts-partial", lambda b: ("ts-partials", (([1], 1, (1,), 5),))),
    "ts-reveals-int-points": ("ts-reveal", lambda b: ("ts-reveals", ((b[1], 5, (1, 2, 3)),))),
}


class _BrokenNodeFour(Adversary):
    """Breaks node 4 in the first normal round and keeps it.  Node 4 has
    no sign request, so it never deals.  In the round an honest node
    first sends a ``trigger`` body, node 4 sends node 0 ``make(that
    body)``; without ``make`` it sends nothing (the reference run)."""

    def __init__(self, trigger=None, make=None):
        self.trigger = trigger
        self.make = make
        self.sent = 0

    def on_round(self, api, info, traffic):
        if info.round == SIGN_ROUND:
            api.break_into(BROKEN)
        honest = {envelope.payload[0]: envelope.payload
                  for envelope in traffic if envelope.channel == "pds"}
        self.act(api, info, honest)

    def act(self, api, info, honest):
        if self.make is not None and not self.sent and self.trigger in honest:
            api.send_as(BROKEN, 0, "pds", self.make(honest[self.trigger]))
            self.sent += 1


class _DegreeRevealer(_BrokenNodeFour):
    """Node 4 deals a zero sharing to nodes 1-3 only, so they ack it and
    it is in QUAL at every node, but node 0 holds no sub-share of it.  In
    the reveal round it then reveals to node 0, if ``reveal``, a zero
    commitment of degree t + 1 and a sub-share that lies on it."""

    def __init__(self, reveal):
        super().__init__()
        self.reveal = reveal

    def act(self, api, info, honest):
        if info.time_unit != 1:
            return
        rng = random.Random(info.round)
        if "rf-zdeal" in honest:
            dealing = FeldmanDealer(GROUP, n=N, threshold=T).deal_zero(rng)
            for receiver in (1, 2, 3):
                api.send_as(BROKEN, receiver, "pds", (
                    "rf-zdeal", 1, dealing.commitment.elements,
                    dealing.shares[receiver].value))
        if "rf-zreveal" in honest and self.reveal:
            high = FeldmanDealer(GROUP, n=N, threshold=T + 1).deal_zero(rng)
            api.send_as(BROKEN, 0, "pds", (
                "rf-zreveal", 1, ((1, high.shares[0].value),), high.commitment.elements))
            self.sent += 1


def _run_broken(adversary):
    public, states = deal_initial_states(GROUP, N, T, random.Random(5))
    programs = [PdsNodeProgram(state) for state in states]
    runner = ALRunner(programs, adversary, SCHED, seed=6)
    for i in range(BROKEN):
        runner.add_external_input(i, SIGN_ROUND, ("sign", "doc"))
    return runner.run(units=2), programs


@pytest.fixture(scope="module")
def withheld_output():
    """The global output of the same break-in, node 4 sending nothing."""
    return _run_broken(_BrokenNodeFour())[0].global_output()


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_body_from_broken_node_is_dropped(withheld_output, name):
    adversary = _BrokenNodeFour(*MALFORMED[name])
    execution, programs = _run_broken(adversary)
    assert adversary.sent == 1
    assert execution.global_output() == withheld_output
    assert all(("doc", 0) in program.signatures for program in programs[:BROKEN])


def test_reveal_of_wrong_degree_counts_as_withheld():
    """A zero commitment of degree t + 1 cannot be added to a degree-t
    sharing.  Revealed for a QUAL dealer, it must count as no reveal:
    node 0 then lacks a QUAL sub-share and its refresh fails (φ)."""
    revealer = _DegreeRevealer(reveal=True)
    execution, _ = _run_broken(revealer)
    assert revealer.sent == 1
    reference, programs = _run_broken(_DegreeRevealer(reveal=False))
    assert execution.global_output() == reference.global_output()
    assert ("failed", 1) in programs[0].refresh_outcomes
    assert all(("ok", 1) in program.refresh_outcomes for program in programs[1:BROKEN])
