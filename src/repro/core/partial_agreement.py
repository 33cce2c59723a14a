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
   ``n = 3t+1`` for (see ``tests/agreement/test_echo.py``).  Each
   certified message proves itself to any receiver, so a node sends a
   session's forwards to each other node as one ``("pa3b", raws)`` pack
   (:data:`repro.wire.PA3`): ``n − 1`` DISPERSEs per session, not
   ``|MAJ|·(n − 1)``, and every receiver still gets every forwarded
   message;
4. the forwarded messages are verified (authenticity of author, content
   and time — the destination is whoever the author originally addressed)
   and cheater marks are updated.  Only an (author, value) pair the node
   does not yet hold in certified form is verified: a held pair is
   already on record, so a forwarded copy of it can neither mark a
   cheater nor change anything else.  That leaves about one check per
   session and node, for its own input, which it holds uncertified;
5. output ``y`` if the surviving ``MAJ'`` is still a majority, else ``φ``.

Many sessions (one per announced key) run in parallel on shared
transports, distinguished by a hashable ``pa_id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.core.auth_send import AuthSendTransport
from repro.core.certify import verify_certified_body
from repro.core.disperse import DisperseService
from repro.crypto.hashing import encode_for_hash
from repro.perf.cache import canonical_body_key, canonical_encoding, seed_canonical_key
from repro.sim.node import NodeContext
from repro.wire import BROADCAST, CERTIFIED, PA1, PA3, aggregated_wire, fits, well_formed

__all__ = ["PartialAgreementService", "NO_VALUE"]

#: the paper's ``φ``
NO_VALUE = None

_PA3_TAG = "pa3"


# encode_for_hash of a pack ("pa3b", raws) is a 2-item list header, the
# kind, then the members' list: its tag, its length, each member's encoding
_PACK_HEADER = b"L" + (2).to_bytes(8, "big") + encode_for_hash("pa3b") + b"L"


def _pack(raws: list) -> tuple:
    """The step-3 body ``("pa3b", raws)``.  A pack is a new object, so
    its DISPERSE dedup key is seeded here from its members' encodings,
    which CERTIFY seeded, instead of each relay walking them again."""
    pack = ("pa3b", tuple(raws))
    try:
        members = [canonical_encoding(raw) for raw in raws]
    except TypeError:
        return pack  # keyed on use, like any body that cannot be encoded
    seed_canonical_key(pack, b"".join((_PACK_HEADER, len(raws).to_bytes(8, "big"), *members)))
    return pack


def _value_key(value: Any) -> Hashable:
    # same key DISPERSE uses for dedup: canonical encoding with a repr
    # fallback, memoized by object identity in repro.perf (values and
    # re-dispersed certified messages are shared by reference across nodes)
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

    ``wire`` is the refresh wire format (:mod:`repro.wire`): on the
    paper wire a session's step-3 pack goes to each other node; with
    ``"aggregated"`` the packs of every session deciding in a round leave
    as one, dispersed to ``BROADCAST``.
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
            # aggregated wire: ONE dispersal to BROADCAST carries every
            # certified message this node re-disperses this round.  Every
            # node still receives every re-dispersed certified message —
            # the information flow of Fig. 5 step 3 (and with it Lemma
            # 16's equivocation-evidence propagation) is unchanged.
            pack = _pack(self._pa3_pending)
            self._pa3_pending = []
            self.disperse.send(ctx, BROADCAST, pack, tag=_PA3_TAG)

    def _prune(self, unit: int) -> None:
        """Drop decided sessions older than the previous time unit.

        Sessions used to accumulate for the whole run (one per announced
        key per refresh, each holding its records and its verified-raw
        dedup set, which keeps about one entry: step 4 verifies only pairs
        not yet held in certified form).  Undecided sessions are never
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
        for accepted in self.transport.accepted_view():
            body = accepted.body
            if not well_formed(body, PA1):
                continue
            _, pa_id, value = body
            try:
                session = self.sessions.get(pa_id)
            except TypeError:  # unhashable: no session can have this id
                continue
            if session is None:
                # a participant without an input learns of the session here
                session = _Session(
                    start_round=ctx.info.round - 2, my_input=NO_VALUE,
                    unit=ctx.info.time_unit,
                )
                self.sessions[pa_id] = session
            self._record(session, accepted.sender, value, accepted.raw)

    def _ingest_step3(self, ctx: NodeContext) -> None:
        for _claimed_src, body in self.disperse.receipts(_PA3_TAG):
            # a step-3 pack: the wrapper is unauthenticated (like any
            # DISPERSE body), and each member raw carries its own
            # certification; a bare certified message reads as a pack of one
            raws = body[1] if well_formed(body, PA3) else (body,)
            for raw in raws:
                if not (fits(raw, CERTIFIED) and well_formed(raw[0], PA1)):
                    continue
                _, pa_id, value = raw[0]
                try:
                    session = self.sessions.get(pa_id)
                except TypeError:  # unhashable: no session has this id
                    continue
                if session is None:
                    continue
                # step 4 can only mark an author caught with a *new*
                # certified value; a pair held in certified form already
                # would leave the session as it is, verified or not
                held = session.records.get(raw[1])
                if held is not None:
                    entry = held.get(_value_key(value))
                    if entry is not None and entry[1] is not None:
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
        # step 3: re-disperse the certified messages of MAJ members (the
        # node's own input has no certified form)
        raws = [
            raw
            for author in session.maj_authors
            for _value, raw in session.records[author].values()
            if raw is not None
        ]
        if not raws:
            return
        if self.aggregated:
            # collected across every session deciding this round;
            # on_round flushes them as one pack to BROADCAST
            self._pa3_pending.extend(raws)
            return
        pack = _pack(raws)
        for receiver in range(self.n):
            if receiver != ctx.node_id:
                self.disperse.send(ctx, receiver, pack, tag=_PA3_TAG)

    def _step5(self, session: _Session) -> Any:
        if session.maj_value is NO_VALUE and not session.maj_authors:
            return NO_VALUE
        cheaters = self._cheaters(session)
        surviving = session.maj_authors - frozenset(cheaters)
        if len(surviving) >= self.majority:
            return session.maj_value
        return NO_VALUE
