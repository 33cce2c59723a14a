"""Functional emulation (Theorem 30), tested by differential execution.

Run the same protocol π twice: natively in the AL model (reliable
authenticated links) and compiled with Λ in the UL model.  With a passive
adversary the *functionality* must coincide: every node must receive
exactly the same multiset of application payloads from every peer —
including payloads sent during refreshment phases (the switch-boundary
buffering makes those survive the per-unit key rotation).
"""

from collections import Counter

from repro.core.authenticator import compile_protocol
from repro.core.uls import build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ALRunner, ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T, UNITS = 5, 2, 3
SCHED = uls_schedule()


class TalkativeProtocol(NodeProgram):
    """π: sends a unique stamped payload to its successor *every* round
    (normal and refresh alike) and records everything received."""

    def __init__(self):
        super().__init__()
        self.received: list[tuple[int, object]] = []  # (sender, payload)

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for envelope in inbox:
            if envelope.channel == "talk":
                self.received.append((envelope.sender, envelope.payload))
        if ctx.info.phase is not Phase.SETUP:
            successor = (self.node_id + 1) % self.n
            ctx.send(successor, "talk", ("msg", self.node_id, ctx.info.round))


def run_al():
    inners = [TalkativeProtocol() for _ in range(N)]
    runner = ALRunner(inners, PassiveAdversary(), SCHED, seed=4)
    runner.run(units=UNITS)
    return inners


def run_ul_compiled(wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=4)
    inners = [TalkativeProtocol() for _ in range(N)]
    programs = compile_protocol(inners, states, SCHEME, keys, wire=wire)
    runner = ULRunner(programs, PassiveAdversary(), SCHED, s=T, seed=4)
    runner.run(units=UNITS)
    return inners


def test_compiled_protocol_delivers_identical_payload_multisets(wire):
    al_inners = run_al()
    ul_inners = run_ul_compiled(wire=wire)
    total_rounds = SCHED.total_rounds(UNITS)
    for node in range(N):
        def deliveries(inner):
            # ignore the tail: payloads sent near the end of the run are
            # still in flight in the slower (delay-2) compiled network
            return Counter(
                (sender, payload) for sender, payload in inner.received
                if payload[2] < total_rounds - 2 * 2
            )

        al = deliveries(al_inners[node])
        ul = deliveries(ul_inners[node])
        missing = al - ul
        extra = ul - al
        assert not missing, f"node {node} lost payloads under Λ: {sorted(missing)[:5]}"
        assert not extra, f"node {node} gained payloads under Λ: {sorted(extra)[:5]}"


def test_refresh_phase_payloads_survive_the_key_switch(wire):
    """Specifically the switch-boundary payloads: every payload π sent
    during refreshment phases (except the in-flight tail) arrives."""
    ul_inners = run_ul_compiled(wire=wire)
    refresh_rounds = set()
    for unit in range(1, UNITS):
        start = SCHED.refresh_start(unit)
        refresh_rounds.update(range(start, start + SCHED.refresh_rounds))
    receiver = ul_inners[1]  # successor of node 0
    got_rounds = {payload[2] for sender, payload in receiver.received if sender == 0}
    expected = {r for r in refresh_rounds if r < SCHED.total_rounds(UNITS) - 4}
    missing = expected - got_rounds
    assert not missing, f"refresh-phase payloads lost: {sorted(missing)}"
