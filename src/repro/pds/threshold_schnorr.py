"""Threshold Schnorr signing — the AL-model PDS signing protocol.

This is the reproduction's instantiation of the paper's Theorem 13 ("if
trapdoor permutations exist ... there exist n-node t-secure PDS schemes in
the AL model"), following the discrete-log construction lineage the paper
cites ([23] HJJKY proactive public-key systems): the signing key ``x`` is
a degree-``t`` Feldman-verified Shamir sharing; a signature is a plain
centralized Schnorr signature assembled from partial signatures.

One signing session (per message) runs in four transport steps:

1. **deal** — every *contributor* (a node that received the "sign m"
   request) deals a fresh Feldman sharing of a random nonce ``d_i`` to
   all nodes;
2. **ack** — every node acknowledges, to all, the dealings it holds valid
   shares of (keyed by a hash of the dealing's commitment, so inconsistent
   dealings cannot be aggregated);
3. **reveal** — dealers publicly reveal the sub-shares of nodes that did
   not acknowledge them; every node then fixes the *qualified set* QUAL =
   dealers acknowledged by at least ``n - t`` nodes under one hash;
4. **partial** — contributors holding all QUAL dealings compute the group
   nonce ``R = Π_{d∈QUAL} g^{d_i}``, the challenge ``e = H(R, y, m)``, and
   broadcast the partial signature ``s_j = k_j + e·x_j`` where
   ``k_j = Σ_{d∈QUAL} f_d(j)``.

Steps 1–3 and the qualified set are the joint-Feldman dealing round of
:mod:`repro.pds.dealing`, which the refresh and the DKG share.

Partial signatures are *publicly verifiable* against the Feldman
commitments (``g^{s_j} = nonce_image(j) · key_image(j)^e``), which is what
makes the scheme robust: any ``t + 1`` verified partials interpolate (at
0) to a standard Schnorr signature ``(R, s)`` verifiable by
:class:`~repro.crypto.schnorr.SchnorrScheme` under the unchanging public
key.

Only nodes that were themselves asked to sign contribute nonces and
partials, so fewer than ``t + 1`` requests can never produce a signature
— matching the ideal process (§3.1).

Robustness scope (see DESIGN.md): crashed/silent nodes, dropped or
forged traffic, and corrupted shares are handled; a *protocol-internally
byzantine* dealer that equivocates commitments can abort liveness of a
session (never its safety) — full GJKR-style complaint management is
outside the paper's own scope, which takes AL-model PDS schemes as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.crypto.hashing import encode_for_hash, tagged_hash
from repro.crypto.schnorr import SchnorrSignature, SchnorrVerifyKey, scheme_for_group
from repro.pds.dealing import DealingRound
from repro.pds.keys import PdsNodeState
from repro.pds.transport import Transport
from repro.perf.cache import cached_verify
from repro.sim.node import NodeContext
from repro.wire import SIGNER, SOLO, aggregated_wire, well_formed

__all__ = ["ThresholdSigner", "pds_message_bytes", "verify_pds_signature"]

_SID_TAG = "repro/tsig/session"
_COMMIT_TAG = "repro/tsig/commit"


def pds_message_bytes(message: Any, unit: int) -> bytes:
    """Canonical bytes of the pair ⟨m, u⟩ that the PDS signs (§3.2 binds
    every signature to the time unit of its requests)."""
    return encode_for_hash(("pds-sign", message, unit))


def verify_pds_signature(public, message: Any, unit: int, signature: Any) -> bool:
    """The scheme's ``Ver`` algorithm: plain centralized Schnorr
    verification under the unchanging public key (usable by anyone,
    including the paper's unbreakable verifier ``V``).

    Served through the verification cache (:mod:`repro.perf`): the same
    certificate is checked by every node that receives it, and ``v_cert``
    never changes, so after the first full verification the rest of the
    network answers from the cache."""
    return verify_pds_signature_bytes(public, pds_message_bytes(message, unit), signature)


def _session_id(message_bytes: bytes) -> str:
    return tagged_hash(_SID_TAG, message_bytes).hex()[:24]


@dataclass
class _Session:
    message_bytes: bytes
    start_round: int
    nonces: DealingRound
    contributor: bool = False
    dealt: bool = False
    acked: bool = False
    revealed: bool = False
    partial_sent: bool = False
    done: bool = False
    failed: bool = False
    qual: tuple[int, ...] | None = None
    partials: dict[int, tuple[tuple[int, ...], int]] = field(default_factory=dict)
    signature: SchnorrSignature | None = None
    #: share_index -> (nonces.version, key_commitment, verdict).  A
    #: partial's verdict is a pure function of (dealings, key commitment,
    #: partial), so a memoized verdict stays valid while the version and
    #: the key commitment object are unchanged.  The commitment is held by
    #: strong reference and compared with ``is`` — an id() key could be
    #: recycled after a refresh drops the old commitment.
    verify_memo: dict[int, tuple[int, Any, bool]] = field(default_factory=dict)
    #: time unit the session was created in (retention bookkeeping)
    unit: int = 0


class ThresholdSigner:
    """Multiplexes threshold-Schnorr signing sessions over a transport.

    Owner contract per round (after ``transport.begin_round``): call
    :meth:`on_round` once, then :meth:`request` for any fresh sign
    requests; read :meth:`completed` / :meth:`failed`.

    ``wire`` is the refresh wire format (:mod:`repro.wire`): with
    ``"aggregated"`` each round's acks, reveals and partials leave as one
    plural body per node instead of one body per session.  Either way
    every node accepts both forms.
    """

    def __init__(
        self, state: PdsNodeState, transport: Transport, *, wire: str = "paper"
    ) -> None:
        self.aggregated = aggregated_wire(wire)
        self.state = state
        self.transport = transport
        self.scheme = scheme_for_group(state.public.group)
        self.sessions: dict[str, _Session] = {}
        self._completed: list[tuple[bytes, SchnorrSignature]] = []
        self._failed: list[bytes] = []
        #: rounds from session start to declared failure
        self.deadline_steps = 6
        #: blame record: ``(sid, share_index)`` for every received partial
        #: signature that failed cryptographic verification (pre-checks and
        #: the equation itself; *not* the still-waiting-for-dealings case).
        self.rejected_partials: set[tuple[str, int]] = set()
        # sessions used to accumulate for the whole run; finished ones are
        # now retired after the unit following theirs.  The sid -> unit
        # guard keeps a straggling ts-deal from resurrecting a retired
        # session through _get_session (AUTH-SEND's round pinning makes
        # >1-unit-late arrivals impossible; the guard makes it structural).
        self._retired: dict[str, int] = {}
        self._pruned_through = -1
        # round-wide aggregation buffers of the aggregated wire: one plural
        # body per node per round instead of one send_to_all per session
        self._agg_acks: list[tuple] = []
        self._agg_reveals: list[tuple] = []
        self._agg_partials: list[tuple] = []

    # -- public API -------------------------------------------------------

    def request(self, ctx: NodeContext, message_bytes: bytes) -> str:
        """Join (or start) the signing session for ``message_bytes`` as a
        contributor.  Returns the session id.

        Deals the nonce sharing immediately, so all contributors asked in
        the same round share one step schedule (the ack round counts on
        every dealing having landed one transport delay later).
        """
        sid = _session_id(message_bytes)
        session = self.sessions.get(sid)
        if session is None:
            self._retired.pop(sid, None)  # an explicit request reopens
            session = self._open(ctx, sid, message_bytes, ctx.info.round)
        session.contributor = True
        if not session.dealt and ctx.info.round == session.start_round:
            self._deal(ctx, sid, session)
        return sid

    def completed(self) -> list[tuple[bytes, SchnorrSignature]]:
        """Sessions that produced a signature this round."""
        return list(self._completed)

    def failed(self) -> list[bytes]:
        """Sessions that hit their deadline without a signature this round."""
        return list(self._failed)

    # -- round processing ----------------------------------------------------

    def on_round(self, ctx: NodeContext) -> None:
        self._completed = []
        self._failed = []
        self._prune(ctx.info.time_unit)
        self._ingest(ctx)
        delay = self.transport.delay
        for sid, session in list(self.sessions.items()):
            if session.done or session.failed:
                continue
            offset = ctx.info.round - session.start_round
            if session.contributor and not session.dealt and offset >= 0:
                self._deal(ctx, sid, session)
            if not session.acked and offset >= delay:
                self._send_acks(ctx, sid, session)
            if offset >= 2 * delay and session.qual is None:
                session.qual = session.nonces.qual()
                if session.contributor and not session.revealed:
                    self._send_reveals(ctx, sid, session)
            if (
                session.contributor
                and not session.partial_sent
                and session.qual is not None
                and offset >= 3 * delay
            ):
                self._send_partial(ctx, sid, session)
            if session.qual is not None and not session.done:
                self._try_combine(sid, session)
            if not session.done and offset >= self.deadline_steps * delay:
                session.failed = True
                self._failed.append(session.message_bytes)
        # aggregated wire: flush the round's per-session bodies as one
        # plural message each.  request()/_deal run after on_round in the
        # owner's round order, so dealings stay immediate (their shares
        # are per-receiver private values anyway and are never aggregated).
        if self._agg_acks:
            self.transport.send_to_all(ctx, ("ts-acks", tuple(self._agg_acks)))
            self._agg_acks = []
        if self._agg_reveals:
            self.transport.send_to_all(ctx, ("ts-reveals", tuple(self._agg_reveals)))
            self._agg_reveals = []
        if self._agg_partials:
            self.transport.send_to_all(ctx, ("ts-partials", tuple(self._agg_partials)))
            self._agg_partials = []

    def _prune(self, unit: int) -> None:
        """Retire finished sessions older than the previous time unit."""
        if unit == self._pruned_through:
            return
        self._pruned_through = unit
        stale = [
            sid
            for sid, session in self.sessions.items()
            if (session.done or session.failed) and session.unit < unit - 1
        ]
        for sid in stale:
            self._retired[sid] = self.sessions.pop(sid).unit
        for sid in [s for s, u in self._retired.items() if u < unit - 2]:
            del self._retired[sid]

    # -- inbound ------------------------------------------------------------

    def _ingest(self, ctx: NodeContext) -> None:
        for accepted in self.transport.accepted_view():
            body = accepted.body
            if not well_formed(body, SIGNER):
                continue
            solos = [body]
            if body[0] in SOLO:
                # plural forms: each item goes through exactly its solo
                # handler, so acceptance/blame behaviour is identical
                solos = [(SOLO[body[0]],) + item for item in body[1] if isinstance(item, tuple)]
                solos = [solo for solo in solos if well_formed(solo, SIGNER)]
            for solo in solos:
                kind = solo[0]
                if kind == "ts-deal":
                    self._on_deal(ctx, accepted.sender, solo)
                elif kind == "ts-ack":
                    self._on_ack(accepted.sender, solo)
                elif kind == "ts-reveal":
                    self._on_reveal(accepted.sender, solo)
                elif kind == "ts-partial":
                    self._on_partial(accepted.sender, solo)

    def _open(self, ctx: NodeContext, sid: str, message_bytes: bytes, start: int) -> _Session:
        public = self.state.public
        nonces = DealingRound(
            public.group, public.n, public.threshold, self.state.node_id, _COMMIT_TAG
        )
        session = _Session(message_bytes, start, nonces, unit=ctx.info.time_unit)
        self.sessions[sid] = session
        return session

    def _get_session(
        self, ctx: NodeContext, sid: str, message_bytes: bytes
    ) -> _Session | None:
        session = self.sessions.get(sid)
        if session is None:
            if sid in self._retired:
                return None  # finished and pruned; do not resurrect
            # we learn of the session one transport delay after it started
            session = self._open(
                ctx, sid, message_bytes, ctx.info.round - self.transport.delay
            )
        return session

    def _on_deal(self, ctx: NodeContext, dealer: int, body: tuple) -> None:
        _, sid, message_bytes, elements, share_value = body
        if _session_id(message_bytes) != sid:
            return
        session = self._get_session(ctx, sid, message_bytes)
        if session is not None:
            session.nonces.receive([(dealer, elements, share_value)])

    def _on_ack(self, acker: int, body: tuple) -> None:
        _, sid, ack_list = body
        session = self.sessions.get(sid)
        if session is not None:
            session.nonces.receive_acks(acker, ack_list)

    def _on_reveal(self, dealer: int, body: tuple) -> None:
        _, sid, points, elements = body
        session = self.sessions.get(sid)
        if session is not None:
            session.nonces.receive_reveal(dealer, points, elements)

    def _on_partial(self, sender: int, body: tuple) -> None:
        _, sid, share_index, qual, value = body
        if share_index != sender + 1:
            # a node speaks only for its own share: a partial under another
            # index would shadow the honest one (the first per index counts)
            return
        session = self.sessions.get(sid)
        if session is None or not all(type(d) is int for d in qual):
            return  # non-int dealer ids could not name any dealing
        session.partials.setdefault(share_index, (qual, value))

    # -- outbound steps ----------------------------------------------------------

    def _deal(self, ctx: NodeContext, sid: str, session: _Session) -> None:
        session.dealt = True
        nonce = self.state.public.group.random_scalar(ctx.rng)
        dealing = session.nonces.deal(nonce, ctx.rng)
        for receiver in range(self.state.public.n):
            if receiver == ctx.node_id:
                continue
            self.transport.send(
                ctx,
                receiver,
                (
                    "ts-deal",
                    sid,
                    session.message_bytes,
                    dealing.commitment.elements,
                    dealing.shares[receiver].value,
                ),
            )

    def _send_acks(self, ctx: NodeContext, sid: str, session: _Session) -> None:
        session.acked = True
        ack_list = session.nonces.ack_list()
        if self.aggregated:
            self._agg_acks.append((sid, ack_list))
        else:
            self.transport.send_to_all(ctx, ("ts-ack", sid, ack_list))

    def _send_reveals(self, ctx: NodeContext, sid: str, session: _Session) -> None:
        session.revealed = True
        reveal = session.nonces.reveal()
        if reveal is None:
            return
        if self.aggregated:
            self._agg_reveals.append((sid,) + reveal)
        else:
            self.transport.send_to_all(ctx, ("ts-reveal", sid) + reveal)

    def _send_partial(self, ctx: NodeContext, sid: str, session: _Session) -> None:
        session.partial_sent = True
        qual = session.qual or ()
        if not qual or not session.nonces.holds(qual):
            return  # missing a QUAL dealing; cannot contribute
        if self.state.share is None:
            return
        q = self.state.public.group.q
        nonce_share = sum(session.nonces.dealings[d][1] for d in qual) % q
        commitment_r = self._group_nonce(session, qual)
        challenge = self.scheme.challenge(
            commitment_r, self.state.public.public_key, session.message_bytes
        )
        s_value = (nonce_share + challenge * self.state.share.value) % q
        # the nonce shares have served their purpose: erase them (§6)
        session.nonces.my_shares = None
        self.state.erasure_log.append((self.state.unit, f"nonce:{sid}"))
        session.partials.setdefault(self.state.share_index, (qual, s_value))
        if self.aggregated:
            self._agg_partials.append((sid, self.state.share_index, qual, s_value))
        else:
            body = ("ts-partial", sid, self.state.share_index, qual, s_value)
            self.transport.send_to_all(ctx, body)

    # -- combination --------------------------------------------------------------

    def _group_nonce(self, session: _Session, qual: tuple[int, ...]) -> int:
        """``R = Π_{d ∈ qual} g^{d_i}`` from the dealers' public constants.

        Raises on duplicate dealers: a repeated entry would double-count
        that dealer's nonce, yielding an ``R`` no honest partial was
        computed against.  Wire-supplied qualified sets are screened in
        :meth:`_verify_partials` before this is reached.
        """
        if len(set(qual)) != len(qual):
            raise ValueError(f"duplicate dealers in qualified set {qual!r}")
        group = self.state.public.group
        acc = group.identity
        for dealer in qual:
            commitment, _ = session.nonces.dealings[dealer]
            acc = group.multiply(acc, commitment.public_constant)
        return acc

    def _verify_partials(
        self,
        sid: str,
        session: _Session,
        items: list[tuple[int, tuple[int, ...], int]],
    ) -> list[bool]:
        """Per-item verdicts for ``(share_index, qual, value)`` partials,
        each checked on its own.

        An out-of-range evaluation point (``x ≤ 0`` would be the secret
        constant itself) or a duplicated dealer in the claimed qualified
        set is rejected with blame; a qual naming dealings we have not
        (yet) received is rejected *without* blame — the dealings may
        still arrive.  The rest must satisfy
        ``g^{s_j} = nonce_image_j · key_image_j^{e}``; the key image is
        raised through a fixed-base window, since it stays in force until
        the next refresh (:meth:`repro.pds.keys.PdsNodeState.install_share`
        drops it).
        """
        group = self.state.public.group
        n = self.state.public.n
        verdicts = [False] * len(items)
        dealings = session.nonces.dealings
        for position, (share_index, qual, value) in enumerate(items):
            if not (1 <= share_index <= n):
                self.rejected_partials.add((sid, share_index))
                continue
            if len(set(qual)) != len(qual):
                self.rejected_partials.add((sid, share_index))
                continue
            if any(d not in dealings for d in qual):
                continue  # missing dealings: unverifiable for now, no blame
            commitment_r = self._group_nonce(session, qual)
            challenge = self.scheme.challenge(
                commitment_r, self.state.public.public_key, session.message_bytes
            )
            nonce_image = group.identity
            for dealer in qual:
                nonce_image = group.multiply(
                    nonce_image, dealings[dealer][0].share_image(group, share_index)
                )
            key_image = self.state.key_commitment.share_image(group, share_index)
            rhs = group.multiply(nonce_image, group.fixed_power(key_image, challenge))
            valid = group.base_power(value) == rhs
            verdicts[position] = valid
            if not valid:
                self.rejected_partials.add((sid, share_index))
        return verdicts

    def _try_combine(self, sid: str, session: _Session) -> None:
        key_commitment = self.state.key_commitment
        pending: list[tuple[int, tuple[int, ...], int]] = []
        verdicts: dict[int, bool] = {}
        for share_index, (qual, value) in session.partials.items():
            memo = session.verify_memo.get(share_index)
            if (
                memo is not None
                and memo[0] == session.nonces.version
                and memo[1] is key_commitment
            ):
                verdicts[share_index] = memo[2]
                continue
            pending.append((share_index, qual, value))
        for (share_index, _qual, _value), verdict in zip(
            pending, self._verify_partials(sid, session, pending)
        ):
            verdicts[share_index] = verdict
            session.verify_memo[share_index] = (
                session.nonces.version, key_commitment, verdict
            )
        by_qual: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for share_index, (qual, value) in session.partials.items():
            if verdicts[share_index]:
                by_qual.setdefault(qual, []).append((share_index, value))
        needed = self.state.public.threshold + 1
        field = self.state.public.group.scalar_field
        for qual, points in by_qual.items():
            if len(points) < needed:
                continue
            subset = sorted(points)[:needed]
            s_value = field.interpolate_at_zero(subset)
            signature = SchnorrSignature(
                commitment=self._group_nonce(session, qual), response=s_value
            )
            if verify_pds_signature_bytes(self.state.public, session.message_bytes, signature):
                session.signature = signature
                session.done = True
                self._completed.append((session.message_bytes, signature))
                return


def verify_pds_signature_bytes(public, message_bytes: bytes, signature: Any) -> bool:
    """``Ver`` on pre-canonicalized bytes (internal fast path)."""
    return cached_verify(
        scheme_for_group(public.group),
        SchnorrVerifyKey(y=public.public_key),
        message_bytes,
        signature,
    )
