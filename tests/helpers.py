"""Shared test fixtures: tiny node programs and adversaries.

These are deliberately trivial protocols used to exercise the *simulator*
semantics (delivery, break-ins, rushing, connectivity) independently of
the real cryptographic protocols.  At the end, the plain-``pow``
references the group's exponentiation engine is tested against.
"""

from __future__ import annotations

from repro.sim.adversary_api import Adversary, AdversaryApi, faithful_delivery
from repro.sim.clock import Phase, RoundInfo
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram


class EchoProgram(NodeProgram):
    """Every round, broadcast a counter and record everything received."""

    def __init__(self) -> None:
        super().__init__()
        self.counter = 0
        self.received: list[tuple[int, int, object]] = []  # (round, sender, payload)
        self.secret = "initial-secret"

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for envelope in inbox:
            self.received.append((ctx.info.round, envelope.sender, envelope.payload))
        ctx.broadcast("echo", ("tick", self.node_id, self.counter))
        self.counter += 1


class RomWriterProgram(NodeProgram):
    """Writes a value to ROM during set-up; reports it every normal round."""

    def __init__(self) -> None:
        super().__init__()

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.info.phase is Phase.SETUP and ctx.info.is_phase_end:
            ctx.write_rom("anchor", f"anchor-{self.node_id}")
        if ctx.info.phase is Phase.NORMAL:
            ctx.output(("anchor", ctx.rom.get("anchor")))


class InputEchoProgram(NodeProgram):
    """Outputs every external input it receives, stamped with the round."""

    def __init__(self) -> None:
        super().__init__()

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for value in ctx.external_inputs:
            ctx.output(("input", ctx.info.round, value))


class BreakOnceAdversary(Adversary):
    """Breaks one node at a given round, optionally corrupts its state,
    and leaves it some rounds later."""

    def __init__(self, victim: int, break_round: int, leave_round: int,
                 corrupt: bool = False) -> None:
        self.victim = victim
        self.break_round = break_round
        self.leave_round = leave_round
        self.corrupt = corrupt
        self.stolen_state: object = None

    def on_round(self, api: AdversaryApi, info: RoundInfo, traffic) -> None:
        if info.round == self.break_round:
            program = api.break_into(self.victim)
            self.stolen_state = getattr(program, "secret", None)
            if self.corrupt and hasattr(program, "secret"):
                program.secret = "corrupted"
        if info.round == self.leave_round:
            api.leave(self.victim)


class LinkDropAdversary(Adversary):
    """UL adversary that silently drops all traffic on chosen links."""

    def __init__(self, dead_links: set[frozenset[int]]) -> None:
        self.dead_links = dead_links

    def deliver(self, api, info, traffic):
        plan = {i: [] for i in range(api.n)}
        for envelope in traffic:
            if frozenset((envelope.sender, envelope.receiver)) in self.dead_links:
                continue
            plan[envelope.receiver].append(envelope)
        return plan


class InjectingAdversary(Adversary):
    """UL adversary that injects one forged message per round to node 0,
    claiming to come from node 1."""

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        forged = api.forge_envelope(1, 0, "echo", ("forged", info.round))
        plan[0].append(forged)
        return plan


# -- plain-pow references of repro.crypto.group's engine --------------------


def pow_product(group, bases_and_exponents) -> int:
    """``Π pow(base_i, exp_i % q, p)``: the reference of ``multi_power``."""
    acc = 1
    for base, exponent in bases_and_exponents:
        acc = acc * pow(base, exponent % group.q, group.p) % group.p
    return acc


def euler_member(group, a) -> bool:
    """Euler's criterion, the reference of ``is_member``."""
    return 0 < a < group.p and pow(a, group.q, group.p) == 1
