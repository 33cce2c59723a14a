"""Protocol PARTIAL-AGREEMENT (paper Fig. 5).

Weak agreement on each node's freshly announced public key: among a
majority clique of correctly-communicating nodes there is a single value
``y`` such that every member outputs either ``y`` or ``φ`` (Lemma 16), and
if all members hold the same input they all output it.

The five steps, over AUTH-SEND (delay 2) and raw DISPERSE:

1. every node AUTH-SENDs its input value to everyone;
2. after acceptance, each node marks *cheaters* (authors it accepted two
   different values from) and looks for a majority set ``MAJ`` of
   non-cheaters sharing one value ``y``;
3. each node re-DISPERSEs the raw *certified* messages it accepted from
   ``MAJ`` members — signatures make equivocation provable, which is what
   lets this protocol achieve at ``n = 2t+1`` what echo broadcast needs
   ``n = 3t+1`` for (see :mod:`repro.agreement.echo`);
4. the forwarded messages are verified (authenticity of author, content
   and time — the destination is whoever the author originally addressed)
   and cheater marks are updated;
5. output ``y`` if the surviving ``MAJ'`` is still a majority, else ``φ``.

Many sessions (one per announced key) run in parallel on shared
transports, distinguished by a hashable ``pa_id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.core.auth_send import AuthSendTransport
from repro.core.certify import prime_parsed, verify_certified_body
from repro.core.disperse import DisperseService
from repro.perf.cache import canonical_body_key
from repro.perf.volume import aggregated_wire
from repro.sim.node import NodeContext

__all__ = ["PartialAgreementService", "NO_VALUE"]

#: the paper's ``φ``
NO_VALUE = None

_PA3_TAG = "pa3"


def _value_key(value: Any) -> Hashable:
    # same key DISPERSE uses for dedup: canonical encoding with a repr
    # fallback, memoized by object identity in repro.perf (values and
    # re-dispersed raw tuples are shared by reference across nodes)
    return canonical_body_key(value)


@dataclass
class _Session:
    start_round: int
    my_input: Any
    # author -> value_key -> (value, raw or None)
    records: dict[int, dict[Hashable, tuple[Any, Any]]] = field(default_factory=dict)
    forwarded: bool = False
    maj_value: Any = NO_VALUE
    maj_authors: frozenset[int] = frozenset()
    decided: bool = False
    verified_raws: set[Hashable] = field(default_factory=set)
    #: time unit the session was created in (retention bookkeeping)
    unit: int = 0


class PartialAgreementService:
    """Multiplexes PARTIAL-AGREEMENT sessions (see module docstring).

    Owner contract per round: ``disperse.on_round`` and
    ``transport.begin_round`` first, then :meth:`on_round`, then any
    :meth:`start` calls; read :meth:`outputs`.

    ``wire`` is the refresh wire format (:mod:`repro.perf.volume`): with
    ``"aggregated"`` the step-3 re-dispersals of every session deciding in
    a round leave as one broadcast flood.
    """

    def __init__(
        self, transport: AuthSendTransport, disperse: DisperseService, n: int,
        *, wire: str = "paper",
    ) -> None:
        self.aggregated = aggregated_wire(wire)
        self.transport = transport
        self.disperse = disperse
        self.n = n
        self.majority = (n + 1 + 1) // 2  # ceil((n+1)/2)
        self.sessions: dict[Hashable, _Session] = {}
        self._outputs: list[tuple[Hashable, Any]] = []
        # raw certified messages awaiting the round's batched step-3
        # re-dispersal (aggregated wire)
        self._pa3_pending: list[Any] = []
        self._pruned_through = -1

    # -- API ---------------------------------------------------------------

    def start(self, ctx: NodeContext, pa_id: Hashable, input_value: Any) -> None:
        """Begin a session with our input (``None`` = participate without
        an input of our own — we only collect, forward and decide)."""
        if pa_id in self.sessions:
            return
        session = _Session(
            start_round=ctx.info.round, my_input=input_value,
            unit=ctx.info.time_unit,
        )
        self.sessions[pa_id] = session
        if input_value is not NO_VALUE:
            session.records.setdefault(ctx.node_id, {})[_value_key(input_value)] = (
                input_value,
                None,
            )
            self.transport.send_to_all(ctx, ("pa1", pa_id, input_value))

    def outputs(self) -> list[tuple[Hashable, Any]]:
        """Sessions decided this round: ``(pa_id, y or NO_VALUE)``."""
        return list(self._outputs)

    # -- round processing -----------------------------------------------------

    def on_round(self, ctx: NodeContext) -> None:
        self._outputs = []
        self._prune(ctx.info.time_unit)
        self._ingest_step1(ctx)
        self._ingest_step3(ctx)
        for pa_id, session in self.sessions.items():
            if session.decided:
                continue
            offset = ctx.info.round - session.start_round
            if offset >= 2 and not session.forwarded:
                self._step2_and_3(ctx, session)
            if offset >= 4:
                session.decided = True
                self._outputs.append((pa_id, self._step5(session)))
        if self._pa3_pending:
            # aggregated wire: ONE broadcast flood carries every certified
            # message this node re-disperses this round, instead of a
            # per-message × per-receiver dispersal.  Every node still
            # receives every re-dispersed certified message — the
            # information flow of Fig. 5 step 3 (and with it Lemma 16's
            # equivocation-evidence propagation) is unchanged.
            pack = ("pa3b", tuple(self._pa3_pending))
            self._pa3_pending = []
            self.disperse.broadcast(ctx, pack, tag=_PA3_TAG)

    def _prune(self, unit: int) -> None:
        """Drop decided sessions older than the previous time unit.

        Sessions used to accumulate for the whole run (one per announced
        key per refresh, each holding the verified-raw dedup set — the
        largest per-unit state in the node).  Undecided sessions are never
        dropped, whatever their age."""
        if unit == self._pruned_through:
            return
        self._pruned_through = unit
        stale = [
            pa_id
            for pa_id, session in self.sessions.items()
            if session.decided and session.unit < unit - 1
        ]
        for pa_id in stale:
            del self.sessions[pa_id]

    # -- internals ---------------------------------------------------------------

    def _record(self, session: _Session, author: int, value: Any, raw: Any) -> None:
        bucket = session.records.setdefault(author, {})
        key = _value_key(value)
        if key not in bucket:
            bucket[key] = (value, raw)
        elif raw is not None and bucket[key][1] is None:
            bucket[key] = (value, raw)

    def _ingest_step1(self, ctx: NodeContext) -> None:
        for accepted in self.transport.accepted_certified_view():
            body = accepted.body
            if not (isinstance(body, tuple) and len(body) == 3 and body[0] == "pa1"):
                continue
            _, pa_id, value = body
            session = self.sessions.get(pa_id)
            if session is None:
                # a participant without an input learns of the session here
                session = _Session(
                    start_round=ctx.info.round - 2, my_input=NO_VALUE,
                    unit=ctx.info.time_unit,
                )
                self.sessions[pa_id] = session
            raw = tuple(accepted.raw)
            prime_parsed(raw, accepted.raw)  # step-3 receivers re-parse this
            self._record(session, accepted.sender, value, raw)

    def _ingest_step3(self, ctx: NodeContext) -> None:
        for _claimed_src, body in self.disperse.receipts(_PA3_TAG):
            if not isinstance(body, tuple):
                continue
            if len(body) == 2 and body[0] == "pa3b" and isinstance(body[1], tuple):
                # a batched re-dispersal: the pack wrapper is unauthenticated
                # (like any DISPERSE body), each member raw carries its own
                # certification and goes through exactly the solo path
                raws = body[1]
            else:
                raws = (body,)
            for raw in raws:
                if not isinstance(raw, tuple) or len(raw) != 8:
                    continue
                inner = raw[0]
                if not (
                    isinstance(inner, tuple) and len(inner) == 3 and inner[0] == "pa1"
                ):
                    continue
                _, pa_id, value = inner
                session = self.sessions.get(pa_id)
                if session is None:
                    continue
                raw_key = _value_key(raw)
                if raw_key in session.verified_raws:
                    continue
                session.verified_raws.add(raw_key)
                msg = verify_certified_body(
                    self.transport.keystore.scheme,
                    self.transport.public,
                    expected_unit=self.transport.keystore.unit,
                    expected_round=session.start_round,
                    raw=raw,
                )
                if msg is None:
                    continue
                self._record(session, msg.source, value, raw)

    def _cheaters(self, session: _Session) -> set[int]:
        return {author for author, values in session.records.items() if len(values) > 1}

    def _step2_and_3(self, ctx: NodeContext, session: _Session) -> None:
        session.forwarded = True
        cheaters = self._cheaters(session)
        tally: dict[Hashable, list[int]] = {}
        for author, values in session.records.items():
            if author in cheaters:
                continue
            (key, (_value, _raw)), = values.items()
            tally.setdefault(key, []).append(author)
        for key, authors in tally.items():
            if len(authors) >= self.majority:
                (value, _raw) = session.records[authors[0]][key]
                session.maj_value = value
                session.maj_authors = frozenset(authors)
                break
        # step 3: re-disperse the certified messages of MAJ members
        for author in session.maj_authors:
            for value, raw in session.records[author].values():
                if raw is None:
                    continue  # own input has no certified form
                if self.aggregated:
                    # collected across every session deciding this round;
                    # on_round flushes them as one broadcast flood
                    self._pa3_pending.append(raw)
                    continue
                for receiver in range(self.n):
                    if receiver != ctx.node_id:
                        self.disperse.send(ctx, receiver, raw, tag=_PA3_TAG)

    def _step5(self, session: _Session) -> Any:
        if session.maj_value is NO_VALUE and not session.maj_authors:
            return NO_VALUE
        cheaters = self._cheaters(session)
        surviving = session.maj_authors - frozenset(cheaters)
        if len(surviving) >= self.majority:
            return session.maj_value
        return NO_VALUE
