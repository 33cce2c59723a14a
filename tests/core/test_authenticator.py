"""Tests for the proactive authenticator Λ (§5) and Definition-10 views."""

from repro.adversary.impersonation import UlsImpersonator
from repro.adversary.strategies import CutOffAdversary
from repro.core.authenticator import compile_protocol
from repro.core.uls import build_uls_states, uls_schedule
from repro.core.views import external_view, impersonations, internal_sent
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase
from repro.sim.messages import Envelope
from repro.sim.node import ALERT, NodeContext, NodeProgram
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
SCHED = uls_schedule()


class PingProtocol(NodeProgram):
    """A toy AL-model protocol π: each normal round, every node sends a
    stamped ping to its successor and records what it receives."""

    def __init__(self):
        super().__init__()
        self.received = []

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        for envelope in inbox:
            if envelope.channel == "ping":
                self.received.append((ctx.info.round, envelope.sender, envelope.payload))
        if ctx.info.phase is Phase.NORMAL:
            successor = (self.node_id + 1) % self.n
            ctx.send(successor, "ping", ("ping", self.node_id, ctx.info.round))


def build(seed=5, wire="paper"):
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=seed)
    inners = [PingProtocol() for _ in range(N)]
    programs = compile_protocol(inners, states, SCHEME, keys, wire=wire)
    return public, programs, inners


def run(programs, adversary=None, units=3, seed=2):
    runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED, s=T, seed=seed)
    return runner.run(units=units), runner


def test_compiled_protocol_delivers_pings(wire):
    _, programs, inners = build(wire=wire)
    execution, _ = run(programs, units=2)
    # node 1 received pings from node 0 during normal rounds
    from_zero = [p for _, sender, p in inners[1].received if sender == 0]
    assert len(from_zero) >= 8  # most normal rounds of two units
    for payload in from_zero:
        assert payload[0] == "ping" and payload[1] == 0


def test_no_alerts_or_impersonations_in_benign_run(wire):
    _, programs, _ = build(wire=wire)
    execution, _ = run(programs, units=3)
    for i in range(N):
        assert ALERT not in execution.outputs_of(i)
        for unit in range(3):
            assert impersonations(execution, i, unit) == set()


def test_views_reflect_traffic(wire):
    _, programs, _ = build(wire=wire)
    execution, _ = run(programs, units=2)
    sent = internal_sent(execution, 0, 1)
    assert sent  # node 0 sent pings during unit 1
    seen = external_view(execution, 0, 1)
    assert seen  # node 1 saw them
    # every externally seen item was really sent (possibly in unit 0 for
    # boundary messages)
    sent_all = sent | internal_sent(execution, 0, 0)
    assert seen <= sent_all


def test_compile_protocol_validates_lengths():
    import pytest

    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=1)
    with pytest.raises(ValueError):
        compile_protocol([PingProtocol()], states, SCHEME, keys)


def test_cutoff_attack_awareness_and_no_forgery(wire):
    """Proposition 31 end-to-end: the §1.1 attack against Λ(π).  The
    cut-off victim alerts in every unit it is impersonated-in/cut-off,
    and the Definition-10 external view shows no forged messages."""
    _, programs, _ = build(wire=wire)
    impersonator = UlsImpersonator(victim=3)
    adversary = CutOffAdversary(victim=3, break_unit=1, impersonator=impersonator)
    execution, _ = run(programs, adversary=adversary, units=3)
    # awareness: alert in unit 2 (the first full cut-off unit)
    assert execution.alerts_in_unit(3, 2) >= 1
    # the adversary really tried
    assert impersonator.attempts
    # no forged message entered any honest node's top layer in unit 2
    assert impersonations(execution, 3, 2) == set()


def test_cutoff_without_impersonation_still_alerts(wire):
    """Even a pure denial (cut links, no forgeries): the victim cannot
    refresh its certificate and must alert — it cannot distinguish denial
    from impersonation, and the paper requires awareness either way."""
    _, programs, _ = build(wire=wire)
    adversary = CutOffAdversary(victim=2, break_unit=1)
    execution, _ = run(programs, adversary=adversary, units=3)
    assert execution.alerts_in_unit(2, 2) >= 1


def test_cutoff_ends_node_recovers(wire):
    """After the cut-off window closes the victim recovers at the next
    refreshment phase and stops alerting."""
    _, programs, _ = build(wire=wire)
    adversary = CutOffAdversary(victim=2, break_unit=1, cutoff_units=1)
    execution, _ = run(programs, adversary=adversary, units=4)
    # cut off during unit 2 -> alert; free again from unit 3's refresh
    assert execution.alerts_in_unit(2, 2) >= 1
    assert execution.alerts_in_unit(2, 3) == 0
    assert dict(programs[2].core.keystore.history)[3] == "ok"
    assert programs[2].core.state.share_is_valid()
