"""Tests for DISPERSE (Fig. 2) including Lemma 15."""

from repro.faults import DropFault, FaultInjectionAdversary, FaultPlan
from repro.core.disperse import DisperseService
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase, Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

SCHED = Schedule(setup_rounds=1, refresh_rounds=1, normal_rounds=12)


class DisperseHost(NodeProgram):
    """Sends scheduled payloads via DISPERSE and records receipts."""

    def __init__(self, sends=None):
        super().__init__()
        self.disperse = DisperseService()
        self.sends = sends or {}  # round -> (receiver, body, tag)
        self.received = []  # (round, tag, claimed_src, body)

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        for tag in ("", "x", "y"):
            for src, body in self.disperse.receipts(tag):
                self.received.append((ctx.info.round, tag, src, body))
        job = self.sends.get(ctx.info.round)
        if job:
            receiver, body, tag = job
            self.disperse.send(ctx, receiver, body, tag=tag)


def run(n, sends_by_node, adversary=None, units=1, seed=0, s=2):
    programs = []
    for i in range(n):
        programs.append(DisperseHost(sends=dict(sends_by_node.get(i, {}))))
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=s, seed=seed)
    runner.run(units=units)
    return runner


def test_basic_delivery_two_rounds():
    runner = run(4, {0: {2: (1, "hello", "")}})
    received = runner.nodes[1].program.received
    assert received == [(4, "", 0, "hello")]


def test_receipt_deduplicated_across_paths():
    """n-2 relays + the direct path deliver the same string; the receiver
    marks it once."""
    runner = run(6, {0: {2: (1, "m", "")}})
    received = runner.nodes[1].program.received
    assert len(received) == 1


def test_tags_separate_consumers():
    runner = run(4, {0: {2: (1, "a", "x"), 3: (1, "b", "y")}})
    received = runner.nodes[1].program.received
    assert (4, "x", 0, "a") in received
    assert (5, "y", 0, "b") in received
    assert all(tag != "" for _, tag, _, _ in received)


def test_lemma15_delivery_despite_dead_direct_link():
    """Lemma 15: with both endpoints s-operational (s <= (n-1)/2), DISPERSE
    delivers even when the direct link is dead — a common reliable
    neighbour relays."""
    drop = DropFault(link=frozenset({0, 1}), first_round=0, last_round=999)
    runner = run(5, {0: {2: (1, "via-relay", "")}},
                 adversary=FaultInjectionAdversary(FaultPlan(drops=(drop,))), s=2)
    received = runner.nodes[1].program.received
    assert (4, "", 0, "via-relay") in received


def test_lemma15_boundary_many_dead_links():
    """Sender keeps only links to {2, 3}, receiver only to {3, 4}: node 3
    is the single common neighbour and suffices."""
    n = 5
    dead = [frozenset({0, 1}), frozenset({0, 4}), frozenset({1, 2})]
    drops = tuple(DropFault(link=link, first_round=0, last_round=999) for link in dead)
    runner = run(n, {0: {2: (1, "squeeze", "")}},
                 adversary=FaultInjectionAdversary(FaultPlan(drops=drops)), s=2)
    received = runner.nodes[1].program.received
    assert any(body == "squeeze" for _, _, _, body in received)


def test_no_delivery_when_fully_cut():
    """All of the receiver's links dead: nothing arrives (delivery needs
    at least one reliable path; the receiver here is 4-disconnected)."""
    n = 5
    drops = tuple(DropFault(link=frozenset({1, j}), first_round=0, last_round=999)
                  for j in range(n) if j != 1)
    runner = run(n, {0: {2: (1, "void", "")}},
                 adversary=FaultInjectionAdversary(FaultPlan(drops=drops)), s=4)
    assert runner.nodes[1].program.received == []


def test_relay_count_statistics():
    runner = run(5, {0: {2: (1, "m", "")}})
    relays = sum(node.program.disperse.messages_relayed for node in runner.nodes)
    # every node except sender and receiver relays once; receiver's direct
    # copy is buffered, not relayed; and the receiver also relays? no: dst==me
    assert relays == 3


def test_injected_forwarding_is_received_but_unauthenticated():
    """DISPERSE offers no authenticity: an injected 'forwarding' with any
    claimed source is happily marked received (motivates CERTIFY)."""
    from repro.sim.adversary_api import Adversary, faithful_delivery

    class Injector(Adversary):
        def deliver(self, api, info, traffic):
            plan = faithful_delivery(traffic, api.n)
            if info.round == 3:
                plan[1].append(api.forge_envelope(
                    2, 1, "disperse", ("fwding", "", 0, 1, "forged")))
            return plan

    runner = run(4, {}, adversary=Injector())
    received = runner.nodes[1].program.received
    assert (4, "", 0, "forged") in received
