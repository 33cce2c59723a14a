#!/usr/bin/env python3
"""Lightweight per-unit session keys (the paper's §5 footnote variant).

The full authenticator pays ~2(n−1) envelopes and two signature
operations per message to guarantee delivery.  When a deployment only
needs *authentication* (drop = retry at a higher layer), the paper
sketches a cheaper design: derive a pairwise MAC key per time unit from
the certified per-unit keys, then authenticate messages directly.

This demo runs a chat workload over the session layer across a
refreshment phase — watch the session keys rotate with the unit — while
an adversary injects forged MACs that all bounce.

Run:  python examples/session_chat.py
"""

from repro.core.sessions import SESSION_CHANNEL, SessionLayer
from repro.core.uls import UlsCore, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import Adversary, faithful_delivery
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

N, T, UNITS, SEED = 5, 2, 2, 31
GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)


class ChatNode(NodeProgram):
    def __init__(self, state, keys):
        super().__init__()
        self.core = UlsCore(state, SCHEME, keys, node_id=state.node_id)
        self.sessions = SessionLayer(self.core)
        self.received = []

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.info.phase is Phase.SETUP:
            if ctx.info.is_phase_end and "pds_public_key" not in ctx.rom:
                ctx.write_rom("pds_public_key", self.core.state.public.public_key)
            return
        self.core.on_round(ctx, inbox)
        self.sessions.on_round(ctx, inbox)
        for src, body in self.sessions.accepted():
            self.received.append((ctx.info.time_unit, src, body))
        if ctx.info.phase is Phase.NORMAL and ctx.info.index_in_phase >= 2:
            peer = (self.node_id + 1) % self.n
            self.sessions.send(ctx, peer, ("hi", self.node_id, ctx.info.round))
        self.core.end_round(ctx)


class MacForger(Adversary):
    """Injects bogus MAC'd messages every normal round."""

    def __init__(self):
        self.injected = 0

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        if info.phase is Phase.NORMAL:
            for receiver in range(api.n):
                claimed = (receiver + 1) % api.n
                plan[receiver].append(api.forge_envelope(
                    claimed, receiver, SESSION_CHANNEL,
                    ("mac", info.time_unit, info.round, ("forged!",), b"\x00" * 32)))
                self.injected += 1
        return plan


def main() -> None:
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=SEED)
    programs = [ChatNode(states[i], keys[i]) for i in range(N)]
    adversary = MacForger()
    runner = ULRunner(programs, adversary, uls_schedule(), s=T, seed=SEED)
    execution = runner.run(units=UNITS)

    for program in programs:
        per_unit = {}
        for unit, src, body in program.received:
            per_unit[unit] = per_unit.get(unit, 0) + 1
        rejected = program.sessions.rejected_count
        print(f"node {program.node_id}: chats received per unit {per_unit}, "
              f"forged/invalid MACs rejected: {rejected}")
        assert all(body != ("forged!",) for _, _, body in program.received)
        assert {0, 1} <= set(per_unit)

    k0 = programs[0].sessions._session_keys.get((0, 1))
    k1 = programs[0].sessions._session_keys.get((1, 1))
    print(f"\nadversary injected {adversary.injected} forged MACs; zero accepted.")
    print(f"session key 0<->1 rotated across the refresh: {k0 != k1 and k1 is not None}")
    print("OK: authenticated chat at ~1 envelope/message, forgeries rejected.")


if __name__ == "__main__":
    main()
