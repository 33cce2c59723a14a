"""Safety of the threshold signer under protocol-internal byzantine nodes.

DESIGN.md scopes the PDS's *liveness* to crash/omission faults (full
GJKR-style complaint handling is outside the paper's own scope), but its
*safety* — no forged or malformed signature ever verifies — must hold
against arbitrary in-protocol misbehaviour.  These tests drive broken
nodes that send corrupted dealings, garbage partials and equivocating
commitments, and assert the only two possible outcomes: a valid signature
on the requested message, or no signature at all.
"""

import random

import pytest

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
    """Breaks one node and replays distorted copies of the signing
    traffic it observes: corrupted shares in dealings, random partials,
    equivocated commitments to half the nodes."""

    def __init__(self, victim: int, mode: str) -> None:
        self.victim = victim
        self.mode = mode

    def on_round(self, api, info, traffic) -> None:
        if info.round == SIGN_ROUND - 1:
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
                corrupted = (payload[0], payload[1], payload[2], payload[3],
                             rng.randrange(GROUP.q))
                for receiver in range(api.n):
                    if receiver != self.victim:
                        api.send_as(self.victim, receiver, "pds", corrupted)
            elif payload[0] == "ts-partial" and self.mode == "bad-partials":
                forged = (payload[0], payload[1], self.victim + 1, payload[3],
                          rng.randrange(GROUP.q))
                for receiver in range(api.n):
                    if receiver != self.victim:
                        api.send_as(self.victim, receiver, "pds", forged)
            elif payload[0] == "ts-deal" and self.mode == "equivocate":
                # send two different (valid-looking) commitment vectors to
                # the two halves of the network
                fake_elements = tuple(
                    GROUP.base_power(rng.randrange(GROUP.q))
                    for _ in range(len(payload[3]))
                )
                fake = (payload[0], payload[1], payload[2], fake_elements,
                        rng.randrange(GROUP.q))
                for receiver in range(api.n):
                    if receiver != self.victim:
                        chosen = fake if receiver % 2 == 0 else payload
                        api.send_as(self.victim, receiver, "pds", chosen)


@pytest.mark.parametrize("mode", ["bad-shares", "bad-partials", "equivocate"])
def test_byzantine_participant_cannot_break_safety(mode, wire):
    public, states = deal_initial_states(GROUP, N, T, random.Random(1))
    programs = [PdsNodeProgram(state, wire=wire) for state in states]
    adversary = ByzantineSigner(victim=4, mode=mode)
    runner = ALRunner(programs, adversary, SCHED, seed=2)
    for i in range(N):
        runner.add_external_input(i, SIGN_ROUND, ("sign", "target"))
    execution = runner.run(units=1)

    # outcome 1 or 2: a correct signature, or nothing — never garbage
    for program in programs[:4]:  # honest nodes
        signature = program.signatures.get(("target", 0))
        if signature is not None:
            assert verify_pds_signature(public, "target", 0, signature)
    # and the adversary gained nothing it could present elsewhere:
    # no signature on any *other* message exists
    for program in programs[:4]:
        assert set(program.signatures) <= {("target", 0)}


@pytest.mark.parametrize("mode", ["bad-shares", "bad-partials"])
def test_liveness_survives_noise_from_one_byzantine_node(mode, wire):
    """With n - 1 = 4 >= t + 1 honest contributors, the corrupted traffic
    from one byzantine node must not prevent the signature (robustness:
    bad shares and partials are identified by Feldman verification and
    dropped)."""
    public, states = deal_initial_states(GROUP, N, T, random.Random(3))
    programs = [PdsNodeProgram(state, wire=wire) for state in states]
    adversary = ByzantineSigner(victim=4, mode=mode)
    runner = ALRunner(programs, adversary, SCHED, seed=4)
    for i in range(N):
        runner.add_external_input(i, SIGN_ROUND, ("sign", "robust"))
    runner.run(units=1)
    signed = sum(1 for p in programs[:4] if ("robust", 0) in p.signatures)
    assert signed >= T + 1
    signature = next(p.signatures[("robust", 0)] for p in programs[:4]
                     if ("robust", 0) in p.signatures)
    assert verify_pds_signature(public, "robust", 0, signature)
