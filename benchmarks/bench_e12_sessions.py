"""E12 (ablation) — per-message signatures vs per-unit session keys.

The paper's §5 footnote: instead of AUTH-SENDing every application
message (certificates + DISPERSE: delivery guaranteed, Θ(n) envelopes and
two signature operations per message), pairs can exchange a session key
per time unit and MAC messages directly (1 envelope, 2 hashes; no
delivery guarantee).  This ablation quantifies the design choice the
paper only sketches:

- *application* envelopes on the wire per delivered message;
- end-to-end wall-clock for an identical chat workload.

Expected shape: the session variant's per-message cost is ~2n× smaller
and independent of n; the AUTH-SEND variant buys delivery through
redundancy.
"""

import time

import pytest

from repro.core.sessions import SESSION_CHANNEL, SessionLayer
from repro.core.uls import UlsCore, build_uls_states, uls_schedule
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ULRunner

from common import GROUP, SCHEME, emit, format_table

T = 2
UNITS = 2
SCHED = uls_schedule()


class Workload(NodeProgram):
    """Identical chat workload over either transport variant."""

    def __init__(self, state, keys, variant: str):
        super().__init__()
        self.core = UlsCore(state, SCHEME, keys, node_id=state.node_id)
        self.variant = variant
        self.sessions = SessionLayer(self.core) if variant == "sessions" else None
        self.delivered = 0

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.info.phase is Phase.SETUP:
            if ctx.info.is_phase_end and "pds_public_key" not in ctx.rom:
                ctx.write_rom("pds_public_key", self.core.state.public.public_key)
            return
        self.core.on_round(ctx, inbox)
        if self.sessions is not None:
            self.sessions.on_round(ctx, inbox)
            self.delivered += len(self.sessions.accepted())
        else:
            self.delivered += len(self.core.app_accepted())
        if ctx.info.phase is Phase.NORMAL and ctx.info.index_in_phase >= 2:
            for peer in range(self.n):
                if peer == self.node_id:
                    continue
                body = ("chat", self.node_id, ctx.info.round)
                if self.sessions is not None:
                    self.sessions.send(ctx, peer, body)
                else:
                    self.core.app_send(ctx, peer, body)
        self.core.end_round(ctx)


def run_variant(n: int, variant: str, seed: int = 0):
    public, states, keys = build_uls_states(GROUP, SCHEME, n, T, seed=seed)
    programs = [Workload(states[i], keys[i], variant) for i in range(n)]
    runner = ULRunner(programs, PassiveAdversary(), SCHED, s=T, seed=seed)
    started = time.perf_counter()
    execution = runner.run(units=UNITS)
    elapsed = time.perf_counter() - started
    delivered = sum(p.delivered for p in programs)
    app_envelopes = 0
    for record in execution.records:
        for envelope in record.sent:
            if envelope.channel == SESSION_CHANNEL:
                app_envelopes += 1
            elif envelope.channel == "disperse" and isinstance(envelope.payload, tuple):
                raw = envelope.payload[4]
                if isinstance(raw, tuple) and len(raw) == 8 \
                        and isinstance(raw[0], tuple) and raw[0][:1] == ("app",):
                    app_envelopes += 1
    return delivered, app_envelopes, elapsed


@pytest.fixture(scope="module")
def table():
    rows = []
    for n in (5, 7):
        auth_delivered, auth_envs, auth_time = run_variant(n, "auth-send")
        sess_delivered, sess_envs, sess_time = run_variant(n, "sessions")
        rows.append((n, "AUTH-SEND", auth_delivered,
                     f"{auth_envs / max(1, auth_delivered):.1f}", f"{auth_time:.2f}s"))
        rows.append((n, "session-MAC", sess_delivered,
                     f"{sess_envs / max(1, sess_delivered):.1f}", f"{sess_time:.2f}s"))
        # both variants deliver the full workload under a passive adversary
        assert sess_delivered >= auth_delivered * 0.9
        # the envelope ablation: AUTH-SEND pays ~2(n-1) envelopes/message
        assert auth_envs / max(1, auth_delivered) > 3 * sess_envs / max(1, sess_delivered)
    return rows


def test_e12_session_ablation(table, benchmark):
    emit("e12_sessions", format_table(
        "E12  Ablation: per-message AUTH-SEND vs per-unit session keys "
        "(§5 footnote); identical chat workload",
        ["n", "variant", "messages delivered", "app envelopes / message", "wall-clock"],
        table,
    ))
    benchmark(lambda: run_variant(5, "sessions", seed=9))
