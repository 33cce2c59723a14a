"""Echo broadcast: weak consistent broadcast over any transport.

The AL model gives authenticated reliable *point-to-point* links but no
broadcast channel (§1.4); distributed-signature sub-protocols need their
dealings and control messages to be *consistent* across receivers.  This
module provides the standard two-step echo ("crusader") broadcast:

1. the broadcaster sends its value to everyone;
2. every receiver echoes the value it received to everyone;
3. a receiver delivers value ``v`` if at least ``n - t`` distinct nodes
   (its own echo included) echoed ``v``; otherwise it delivers ``⊥``.

Guarantees over authenticated reliable links with at most ``t`` corrupted
nodes:

- *validity* (``n >= 2t + 1``): an honest, well-connected broadcaster's
  value is delivered by every honest node;
- *consistency* (``n >= 3t + 1``): no two honest nodes deliver different
  non-⊥ values.  Two values with ``n - t`` echoes each share at least
  ``n - 2t > t`` echoers, hence an *honest* one — who echoes only once.
  With only ``n = 2t + 1`` the quorums may intersect solely in corrupted
  nodes, so echo broadcast alone cannot give consistency; this is exactly
  why the paper's PARTIAL-AGREEMENT (Fig. 5) adds a second, *signed*
  cross-check round — equivocation by certified senders becomes provable
  and both conflicting values are discarded (Lemma 16).

An equivocating broadcaster may always cause some honest nodes to deliver
``⊥`` rather than a value.

Sessions are keyed ``(broadcaster, tag)``; a tag is any hashable value
(protocols use e.g. ``("tsig-deal", session_id)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.pds.transport import Transport
from repro.sim.node import NodeContext

__all__ = ["EchoBroadcast", "BOTTOM"]

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
