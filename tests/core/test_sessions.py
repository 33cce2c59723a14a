"""Tests for the per-unit session-key layer (§5 footnote 1)."""

import pytest

from repro.core.sessions import SESSION_CHANNEL, SessionLayer
from repro.core.uls import UlsCore, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.hash_sig import MerkleSignatureScheme
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


class SessionChat(NodeProgram):
    """Sends one MAC'd chat message to every peer per normal round."""

    def __init__(self, state, scheme, keys, wire="paper"):
        super().__init__()
        self.core = UlsCore(state, scheme, keys, node_id=state.node_id, wire=wire)
        self.sessions = SessionLayer(self.core)
        self.received = []
        self.fallbacks = 0

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.info.phase is Phase.SETUP:
            if ctx.info.is_phase_end and "pds_public_key" not in ctx.rom:
                ctx.write_rom("pds_public_key", self.core.state.public.public_key)
            return
        self.core.on_round(ctx, inbox)
        self.sessions.on_round(ctx, inbox)
        for src, body in self.sessions.accepted():
            self.received.append((ctx.info.round, ctx.info.time_unit, src, body))
        if ctx.info.phase is Phase.NORMAL and ctx.info.index_in_phase >= 2:
            for peer in range(self.n):
                if peer != self.node_id:
                    if not self.sessions.send(ctx, peer, ("chat", self.node_id, ctx.info.round)):
                        self.fallbacks += 1
        self.core.end_round(ctx)


def build(seed=3, wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    programs = [SessionChat(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    return public, programs


def run(programs, adversary=None, units=2, seed=3):
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=T, seed=seed)
    return runner.run(units=units)


def test_sessions_require_schnorr_keys():
    public, states, keys = build_uls_states(
        GROUP, MerkleSignatureScheme(capacity=4), 5, 2, seed=1
    )
    core = UlsCore(states[0], MerkleSignatureScheme(capacity=4), keys[0], node_id=0)
    with pytest.raises(TypeError):
        SessionLayer(core)


def test_session_chat_flows_in_every_unit(wire):
    _, programs = build(wire=wire)
    run(programs, units=2)
    for program in programs:
        units_seen = {unit for _, unit, _, _ in program.received}
        assert {0, 1} <= units_seen
        peers = {src for _, _, src, _ in program.received}
        assert peers == set(range(N)) - {program.node_id}
        assert program.fallbacks == 0  # hellos arrived before the first chat


def test_session_keys_agree_pairwise(wire):
    _, programs = build(wire=wire)
    run(programs, units=2)
    for i in range(N):
        for j in range(i + 1, N):
            k_ij = programs[i].sessions.session_key(j)
            k_ji = programs[j].sessions.session_key(i)
            assert k_ij is not None
            assert k_ij == k_ji


def test_session_keys_rotate_each_unit(wire):
    _, programs = build(wire=wire)
    run(programs, units=2)
    layer = programs[0].sessions
    old = layer._session_keys.get((0, 1))
    new = layer._session_keys.get((1, 1))
    assert new is not None
    if old is not None:
        assert old != new


def test_forged_mac_rejected(wire):
    class MacForger(Adversary):
        def deliver(self, api, info, traffic):
            plan = faithful_delivery(traffic, api.n)
            if info.phase is Phase.NORMAL:
                plan[0].append(api.forge_envelope(
                    1, 0, SESSION_CHANNEL,
                    ("mac", info.time_unit, info.round, ("forged",), b"bad-tag")))
            return plan

    _, programs = build(wire=wire)
    run(programs, adversary=MacForger(), units=1)
    forged = [body for _, _, _, body in programs[0].received if body == ("forged",)]
    assert forged == []
    assert programs[0].sessions.rejected_count > 0


def test_tampered_body_rejected(wire):
    class Tamperer(Adversary):
        def deliver(self, api, info, traffic):
            plan = {i: [] for i in range(api.n)}
            for envelope in traffic:
                if envelope.channel == SESSION_CHANNEL and envelope.receiver == 0:
                    payload = envelope.payload
                    envelope = envelope.with_payload(
                        (payload[0], payload[1], payload[2], ("tampered",), payload[4])
                    )
                plan[envelope.receiver].append(envelope)
            return plan

    _, programs = build(wire=wire)
    run(programs, adversary=Tamperer(), units=1)
    assert all(body != ("tampered",) for _, _, _, body in programs[0].received)
    # node 0 received nothing on the session channel (all tampered)
    assert all(src != 1 or body[0] == "chat" for _, _, src, body in programs[0].received)


def test_replayed_mac_rejected(wire):
    class Replayer(Adversary):
        def __init__(self):
            self.stash = {}

        def deliver(self, api, info, traffic):
            plan = faithful_delivery(traffic, api.n)
            for envelope in traffic:
                if envelope.channel == SESSION_CHANNEL:
                    self.stash.setdefault(info.round + 3, []).append(envelope)
            for envelope in self.stash.pop(info.round, []):
                plan[envelope.receiver].append(envelope)
            return plan

    _, programs = build(wire=wire)
    run(programs, adversary=Replayer(), units=1)
    # each (sender, round) chat arrives exactly once despite the replays
    from collections import Counter

    counts = Counter(
        (src, body) for _, _, src, body in programs[0].received
    )
    assert all(count == 1 for count in counts.values())
    assert programs[0].sessions.rejected_count > 0
