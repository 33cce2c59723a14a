"""Echo broadcast over the direct transport: the contrast to
PARTIAL-AGREEMENT.

The AL model gives authenticated reliable *point-to-point* links but no
broadcast channel (§1.4).  :class:`EchoBroadcast` is the standard
two-step echo ("crusader") broadcast:

1. the broadcaster sends its value to everyone;
2. every receiver echoes the value it received to everyone;
3. a receiver delivers value ``v`` if at least ``n - t`` distinct nodes
   (its own echo included) echoed ``v``; otherwise it delivers ``⊥``.

With at most ``t`` corrupted nodes it is *valid* at ``n >= 2t + 1`` (an
honest, well-connected broadcaster's value reaches every honest node)
and *consistent* at ``n >= 3t + 1``: two values with ``n - t`` echoes
each share ``n - 2t > t`` echoers, hence an honest one, who echoes only
once.  At ``n = 2t + 1`` the quorums may meet only in corrupted nodes,
and an equivocating broadcaster splits the honest nodes — which is why
the paper's PARTIAL-AGREEMENT (Fig. 5) adds a signed cross-check round
(Lemma 16).  Nothing in the PDS or the ULS runs over echo broadcast; it
lives here as that contrast.
"""

from dataclasses import dataclass, field
from typing import Any, Hashable

import pytest

from repro.pds.transport import DirectTransport, Transport
from repro.sim.adversary_api import Adversary, PassiveAdversary
from repro.sim.clock import Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ALRunner, ULRunner

SCHED = Schedule(setup_rounds=1, refresh_rounds=1, normal_rounds=10)

#: the distinguished "no consistent value" output
BOTTOM = ("<bottom>",)


@dataclass
class _Session:
    start_round: int
    direct_value: Any = None
    have_direct: bool = False
    echoes: dict[int, Any] = field(default_factory=dict)  # echoer -> value
    delivered: bool = False


class EchoBroadcast:
    """Multiplexes echo-broadcast sessions over a :class:`Transport`.

    Owner contract per round, after ``transport.begin_round``:
    call :meth:`on_round` exactly once, then optionally
    :meth:`broadcast`; read :meth:`deliveries`.
    """

    def __init__(self, transport: Transport, n: int, t: int) -> None:
        self.transport = transport
        self.n = n
        self.t = t
        self._sessions: dict[tuple[int, Hashable], _Session] = {}
        self._deliveries: list[tuple[int, Hashable, Any]] = []  # (broadcaster, tag, value)

    # -- sending ---------------------------------------------------------

    def broadcast(self, ctx: NodeContext, tag: Hashable, value: Any) -> None:
        """Start a session as the broadcaster."""
        key = (ctx.node_id, tag)
        if key in self._sessions:
            raise ValueError(f"duplicate broadcast for tag {tag!r}")
        session = _Session(start_round=ctx.info.round)
        session.direct_value = value
        session.have_direct = True
        session.echoes[ctx.node_id] = value
        self._sessions[key] = session
        self.transport.send_to_all(ctx, ("ebc-val", ctx.node_id, tag, value))
        # the broadcaster also echoes its own value so receivers can count it
        self.transport.send_to_all(ctx, ("ebc-echo", ctx.node_id, tag, value))

    # -- per-round processing -------------------------------------------

    def on_round(self, ctx: NodeContext) -> None:
        """Process this round's accepted transport messages and complete
        any sessions whose echo-collection window has closed."""
        self._deliveries = []
        for accepted in self.transport.accepted_view():
            body = accepted.body
            if not isinstance(body, tuple) or len(body) != 4:
                continue
            kind, broadcaster, tag, value = body
            if kind == "ebc-val":
                if broadcaster != accepted.sender:
                    continue  # value messages must come from the broadcaster
                self._on_value(ctx, broadcaster, tag, value)
            elif kind == "ebc-echo":
                self._on_echo(ctx, accepted.sender, broadcaster, tag, value)

        delay = self.transport.delay
        for (broadcaster, tag), session in self._sessions.items():
            if session.delivered:
                continue
            # echoes triggered at start+delay arrive by start+2*delay
            if ctx.info.round >= session.start_round + 2 * delay:
                session.delivered = True
                self._deliveries.append((broadcaster, tag, self._decide(session)))

    def deliveries(self) -> list[tuple[int, Hashable, Any]]:
        """Sessions completed this round: ``(broadcaster, tag, value-or-BOTTOM)``."""
        return list(self._deliveries)

    # -- internals ---------------------------------------------------------

    def _session(self, key: tuple[int, Hashable], ctx: NodeContext) -> _Session:
        if key not in self._sessions:
            # a receiver first learns of the session when traffic arrives,
            # one transport delay after it started
            self._sessions[key] = _Session(start_round=ctx.info.round - self.transport.delay)
        return self._sessions[key]

    def _on_value(self, ctx: NodeContext, broadcaster: int, tag: Hashable, value: Any) -> None:
        session = self._session((broadcaster, tag), ctx)
        if session.have_direct:
            return  # first value wins; equivocation surfaces via echoes
        session.have_direct = True
        session.direct_value = value
        session.echoes[ctx.node_id] = value
        self.transport.send_to_all(ctx, ("ebc-echo", broadcaster, tag, value))

    def _on_echo(
        self, ctx: NodeContext, echoer: int, broadcaster: int, tag: Hashable, value: Any
    ) -> None:
        session = self._session((broadcaster, tag), ctx)
        # one echo per node per session; first one counts
        session.echoes.setdefault(echoer, value)

    def _decide(self, session: _Session) -> Any:
        counts: dict[Any, int] = {}
        for value in session.echoes.values():
            counts[_key(value)] = counts.get(_key(value), 0) + 1
        for value in session.echoes.values():
            if counts[_key(value)] >= self.n - self.t:
                return value
        return BOTTOM


def _key(value: Any) -> Any:
    """Hashable stand-in for possibly-unhashable echoed values."""
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class EchoHost(NodeProgram):
    """Drives an EchoBroadcast instance; broadcasts per a static schedule
    {(round, tag): value} applying only to this node."""

    def __init__(self, n, t, schedule=None):
        super().__init__()
        self.transport = DirectTransport()
        self.ebc = EchoBroadcast(self.transport, n, t)
        self.schedule = schedule or {}
        self.delivered = {}

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.transport.begin_round(ctx, inbox)
        self.ebc.on_round(ctx)
        for round_number, tag in list(self.schedule):
            if round_number == ctx.info.round:
                self.ebc.broadcast(ctx, tag, self.schedule.pop((round_number, tag)))
        for broadcaster, tag, value in self.ebc.deliveries():
            self.delivered[(broadcaster, tag)] = value
            ctx.output(("ebc", broadcaster, tag, value))


def run(n, t, schedules, adversary=None, seed=0, model="AL", s=None):
    programs = []
    for i in range(n):
        programs.append(EchoHost(n, t, schedule=dict(schedules.get(i, {}))))
    if model == "AL":
        runner = ALRunner(programs, adversary or PassiveAdversary(), SCHED, seed=seed)
    else:
        runner = ULRunner(programs, adversary or PassiveAdversary(), SCHED,
                          s=s or t, seed=seed)
    execution = runner.run(units=1)
    return execution, runner


def test_honest_broadcast_delivered_to_all():
    execution, runner = run(4, 1, {0: {(2, "x"): ("payload", 7)}})
    for node in runner.nodes:
        assert node.program.delivered[(0, "x")] == ("payload", 7)


def test_delivery_timing_is_two_delays():
    _, runner = run(4, 1, {0: {(2, "x"): "v"}})
    host = runner.nodes[1].program
    assert host.delivered  # delivered during the run
    # deliveries happen at start + 2*delay = round 4
    execution_outputs = [
        (r, e) for r, e in runner.nodes[1].outputs if e[0] == "ebc"
    ]
    assert execution_outputs[0][0] == 2 + 2 * host.transport.delay


def test_parallel_broadcasts_from_different_nodes():
    schedules = {
        0: {(2, "a"): "from-0"},
        1: {(2, "b"): "from-1"},
        2: {(3, "c"): "from-2"},
    }
    _, runner = run(5, 2, schedules)
    for node in runner.nodes:
        assert node.program.delivered[(0, "a")] == "from-0"
        assert node.program.delivered[(1, "b")] == "from-1"
        assert node.program.delivered[(2, "c")] == "from-2"


def test_value_message_must_come_from_broadcaster():
    """An injected ebc-val claiming broadcaster b but sent by someone else
    is ignored (over the direct transport the claimed sender IS the
    envelope sender, which the adversary controls in the UL model)."""

    class FakeValue(Adversary):
        def deliver(self, api, info, traffic):
            from repro.sim.adversary_api import faithful_delivery

            plan = faithful_delivery(traffic, api.n)
            if info.round == 2:
                # node 3 delivers a value for a session "owned" by node 0,
                # but the envelope's sender is 3 -> must be dropped
                plan[1].append(api.forge_envelope(3, 1, "direct",
                                                  ("ebc-val", 0, "fake", "evil")))
            return plan

    execution, runner = run(4, 1, {}, adversary=FakeValue(), model="UL", s=2)
    assert (0, "fake") not in runner.nodes[1].program.delivered or \
        runner.nodes[1].program.delivered[(0, "fake")] == BOTTOM


def test_equivocating_broadcaster_consistent_at_n_3t_plus_1():
    """AL model, n = 7 >= 3t + 1 with t = 2: a byzantine broadcaster that
    sends different values to different nodes cannot make two honest nodes
    deliver different non-⊥ values (quorum intersection exceeds t)."""

    class EquivocatingBroadcaster(Adversary):
        def on_round(self, api, info, traffic):
            if info.round == 2:
                api.break_into(0)
                for receiver in (1, 2, 3):
                    api.send_as(0, receiver, "direct", ("ebc-val", 0, "x", "EVIL"))
                    api.send_as(0, receiver, "direct", ("ebc-echo", 0, "x", "EVIL"))
                for receiver in (4, 5, 6):
                    api.send_as(0, receiver, "direct", ("ebc-val", 0, "x", "GOOD"))
                    api.send_as(0, receiver, "direct", ("ebc-echo", 0, "x", "GOOD"))

    _, runner = run(7, 2, {}, adversary=EquivocatingBroadcaster())
    values = [runner.nodes[i].program.delivered.get((0, "x")) for i in range(1, 7)]
    non_bottom = {repr(v) for v in values if v is not None and v != BOTTOM}
    assert len(non_bottom) <= 1


def test_equivocation_splits_at_n_2t_plus_1():
    """AL model, n = 5 = 2t + 1 with t = 2: the same attack CAN split the
    honest nodes — demonstrating why the paper's PARTIAL-AGREEMENT needs
    its signed second-round cross-check at this resilience."""

    class EquivocatingBroadcaster(Adversary):
        def on_round(self, api, info, traffic):
            if info.round == 2:
                api.break_into(0)
                for receiver in (1, 2):
                    api.send_as(0, receiver, "direct", ("ebc-val", 0, "x", "EVIL"))
                    api.send_as(0, receiver, "direct", ("ebc-echo", 0, "x", "EVIL"))
                for receiver in (3, 4):
                    api.send_as(0, receiver, "direct", ("ebc-val", 0, "x", "GOOD"))
                    api.send_as(0, receiver, "direct", ("ebc-echo", 0, "x", "GOOD"))

    _, runner = run(5, 2, {}, adversary=EquivocatingBroadcaster())
    values = [runner.nodes[i].program.delivered.get((0, "x")) for i in range(1, 5)]
    non_bottom = {repr(v) for v in values if v is not None and v != BOTTOM}
    assert len(non_bottom) == 2  # the split actually happens


def test_duplicate_broadcast_tag_rejected():
    _, runner = run(4, 1, {0: {(2, "x"): "v"}})
    # direct re-use of the same tag must raise
    host = runner.nodes[0].program
    ctx = NodeContext(0, 4, SCHED.info(9), None, runner.nodes[0].rom, [])
    with pytest.raises(ValueError):
        host.ebc.broadcast(ctx, "x", "again")
