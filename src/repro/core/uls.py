"""ULS — the UL-model proactive distributed signature scheme (§4.2).

``ULS = ⟨UGen, USign, UVer, URfr⟩`` is the paper's central construction
(Theorem 14): run the AL-model scheme unchanged, but send every protocol
message through AUTH-SEND, and bootstrap each time unit's authentication
keys through the refreshment protocol ``URfr``:

**Part (I)** (authenticated with the *previous* unit's keys):

1. generate fresh local keys ``(s_i^u, v_i^u)`` — with fresh randomness;
2. send the new verification key to everyone *in the clear* (a node
   recovering from a break-in has nothing to authenticate with);
3. run PARTIAL-AGREEMENT on each node's announced key;
4. jointly sign a certificate for every agreed key with the threshold
   (PDS) signer;
5. DISPERSE each certificate to its owner; a node that obtains no valid
   certificate sets its keys to ``φ`` and outputs **alert**.

**Part (II)** (authenticated with the *new* keys): run the PDS share
refresh ``Rfr`` — renewal, commitment sync and share recovery — and erase
the old shares.  A node that fails to refresh its share also alerts.

The round offsets within a refreshment phase are fixed and public (all
nodes move in lockstep, as the synchronous model prescribes); see
:func:`uls_refresh_rounds` for the required phase length.

:class:`UlsCore` packages the machinery for embedding (the authenticator
Λ of §5 reuses it wholesale); :class:`UlsProgram` is the stand-alone PDS
node program with the §3.2 signing interface.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.auth_send import AuthSendTransport
from repro.core.certify import certificate_assertion
from repro.core.disperse import DisperseService
from repro.core.keystore import KeyStore, LocalKeys
from repro.crypto.hashing import encode_for_hash
from repro.crypto.schnorr import SchnorrScheme, SchnorrSigningKey
from repro.crypto.shamir import reconstruct_secret
from repro.crypto.signature import SignatureScheme
from repro.pds.keys import PdsNodeState, PdsPublic, deal_initial_states
from repro.pds.refresh import RefreshService
from repro.pds.threshold_schnorr import (
    ThresholdSigner,
    pds_message_bytes,
    verify_pds_signature,
)
from repro.sim.clock import Phase, Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.wire import APP, CERT, NEWKEY, well_formed

__all__ = [
    "UlsCore",
    "UlsProgram",
    "uls_refresh_rounds",
    "uls_schedule",
    "build_uls_states",
    "verify_user_signature",
    "NEWKEY_CHANNEL",
    "CERT_TAG",
]

NEWKEY_CHANNEL = "newkey"
#: the DISPERSE tag of Part (I) step 5's certificate deliveries
CERT_TAG = "cert"

# Part (I) offsets within a refreshment phase (AUTH-SEND delay = 2)
_O_ANNOUNCE = 0
_O_PA_START = 1
_O_PA_DECIDE = _O_PA_START + 4
_O_SIGN = _O_PA_DECIDE  # request certificates right after PA decides
_O_CERT_SEND = _O_SIGN + 8  # threshold signing completes 4 steps * delay later
_O_SWITCH = _O_CERT_SEND + 2  # certificates disperse in 2 rounds
_O_PART2 = _O_SWITCH + 1


def uls_refresh_rounds() -> int:
    """Refresh-phase length the ULS protocol requires (Part I + Part II)."""
    return _O_PART2 + 4 * 2 + 1  # Part II: RefreshService over delay-2 transport


def uls_schedule(normal_rounds: int = 12, setup_rounds: int = 1) -> Schedule:
    """A schedule with refresh phases long enough for URfr.

    ``normal_rounds`` must leave room for threshold signing sessions
    (8 rounds + slack over AUTH-SEND); 12 is a comfortable default.
    """
    return Schedule(
        setup_rounds=setup_rounds,
        refresh_rounds=uls_refresh_rounds(),
        normal_rounds=normal_rounds,
    )


def build_uls_states(
    group,
    scheme: SignatureScheme,
    n: int,
    t: int,
    seed: int | str = 0,
) -> tuple[PdsPublic, list[PdsNodeState], list[LocalKeys]]:
    """``UGen`` (§4.2.1), as the centralized set-up algorithm the paper
    allows: deal the PDS states, generate every node's unit-0 local keys,
    and certify them by signing with the (momentarily reconstructed, then
    discarded) global secret.  Runs before the simulation starts, i.e.
    inside the adversary-free set-up phase.
    """
    rng = random.Random(seed if isinstance(seed, int) else hash(seed))
    public, states = deal_initial_states(group, n=n, threshold=t, rng=rng)
    # reconstruct x once, inside set-up, to issue the unit-0 certificates
    secret = reconstruct_secret(
        group.scalar_field, [s.share for s in states[: t + 1]]
    )
    signer_key = SchnorrSigningKey(x=secret, y=public.public_key)
    pds_scheme = SchnorrScheme(group)
    initial_keys = []
    for i in range(n):
        keypair = scheme.generate(rng)
        assertion = certificate_assertion(i, 0, scheme.key_repr(keypair.verify_key))
        certificate = pds_scheme.sign(signer_key, pds_message_bytes(assertion, 0))
        initial_keys.append(LocalKeys(unit=0, keypair=keypair, certificate=certificate))
    del secret, signer_key
    return public, states, initial_keys


def verify_user_signature(public: PdsPublic, message: Any, unit: int, signature: Any) -> bool:
    """``UVer`` for user messages signed through :meth:`UlsProgram` /
    :meth:`UlsCore.request_signature` (user messages live in their own
    domain so they can never collide with certificate assertions)."""
    return verify_pds_signature(public, ("user-msg", message), unit, signature)


class UlsCore:
    """The ULS machinery for one node, embeddable in any program.

    Call :meth:`on_round` exactly once per non-set-up round, *before* any
    application sends; then use :meth:`app_send` / :meth:`app_accepted`
    for authenticated application traffic (this is the surface the Λ
    authenticator builds on) and :meth:`request_signature` for USign.

    ``wire`` is the refresh wire format, ``"paper"`` (the paper-literal
    messages, the default) or ``"aggregated"`` (:mod:`repro.wire`);
    it is passed to the transport, the signer and PARTIAL-AGREEMENT.
    """

    def __init__(
        self,
        state: PdsNodeState,
        scheme: SignatureScheme,
        initial_keys: LocalKeys,
        node_id: int,
        relay_fanout: int | None = None,
        cert_retransmit: int = 0,
        cert_grace_rounds: int = 1,
        *,
        wire: str = "paper",
    ) -> None:
        self.state = state
        self.node_id = node_id
        self.n = state.public.n
        self.keystore = KeyStore(scheme)
        self.keystore.current = initial_keys
        if initial_keys.keypair is not None:
            self.keystore.key_reprs[initial_keys.unit] = scheme.key_repr(
                initial_keys.keypair.verify_key
            )
        self.disperse = DisperseService(relay_fanout=relay_fanout)
        self.transport = AuthSendTransport(
            self.keystore, state.public, self.disperse, wire=wire
        )
        self.signer = ThresholdSigner(state, self.transport, wire=wire)
        self.refresher = RefreshService(state, self.transport)
        # Part (II) is started explicitly at its offset; the service must
        # not self-start at the top of the refreshment phase
        self.refresher.auto_start = False
        from repro.core.partial_agreement import PartialAgreementService

        self.pa = PartialAgreementService(
            self.transport, self.disperse, self.n, wire=wire
        )
        #: units in which this node raised an alert
        self.alert_units: list[int] = []
        #: structured degradation events (also emitted as node output)
        self.degraded_log: list[dict] = []
        if cert_retransmit < 0:
            raise ValueError(f"cert_retransmit must be >= 0, got {cert_retransmit}")
        if cert_grace_rounds < 0:
            raise ValueError(f"cert_grace_rounds must be >= 0, got {cert_grace_rounds}")
        #: bounded retransmissions for certificate DISPERSE (step 5)
        self.cert_retransmit = cert_retransmit
        #: extra rounds to wait for a late certificate before going to φ
        self.cert_grace_rounds = cert_grace_rounds
        self._refresh_unit: int | None = None
        self._announced: dict[int, tuple] = {}  # node -> first announced key repr
        self._cert_wanted: dict[bytes, int] = {}  # assertion bytes -> target node
        self._obtained_cert: Any | None = None
        self._certs_completed: set[int] = set()  # targets whose cert we saw complete
        self._switch_deferred = False
        self._part2_begun = False
        self._app_accepted: list[tuple[int, Any]] = []
        self._completed_signatures: list[tuple[bytes, Any]] = []
        self._held_app_sends: list[tuple[int, Any]] = []

    # -- application surface ----------------------------------------------------

    def app_send(self, ctx: NodeContext, receiver: int, message: Any) -> None:
        """Send an application message via AUTH-SEND.

        Messages sent within one transport delay of the refresh-phase key
        switch would be signed with the outgoing unit's keys but verified
        after the switch — and die in flight.  Those sends are buffered
        and flushed right after the switch (which may itself be deferred
        a few rounds while waiting for a late certificate), preserving
        the AL model's delivery guarantee across unit boundaries.
        """
        info = ctx.info
        if self._switch_deferred or (
            info.phase is Phase.REFRESH
            and _O_SWITCH - self.transport.delay <= info.index_in_phase < _O_SWITCH
        ):
            self._held_app_sends.append((receiver, message))
            return
        self.transport.send(ctx, receiver, ("app", message))

    def app_accepted(self) -> list[tuple[int, Any]]:
        """Application messages accepted this round: ``(source, message)``."""
        return list(self._app_accepted)

    def request_signature(self, ctx: NodeContext, message: Any, unit: int) -> bytes:
        """``USign``: join the threshold signing of a user message."""
        message_bytes = pds_message_bytes(("user-msg", message), unit)
        self.signer.request(ctx, message_bytes)
        return message_bytes

    def completed_signatures(self) -> list[tuple[bytes, Any]]:
        """User/certificate signatures completed this round."""
        return list(self._completed_signatures)

    # -- the per-round engine ------------------------------------------------------

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        self.disperse.on_round(ctx, inbox)
        self.transport.begin_round(ctx, inbox)
        self._app_accepted = [
            (accepted.sender, accepted.body[1])
            for accepted in self.transport.accepted_view()
            if well_formed(accepted.body, APP)
        ]
        self.pa.on_round(ctx)
        self.signer.on_round(ctx)
        self.refresher.on_round(ctx)
        self._completed_signatures = self.signer.completed()

        # ingest certificates dispersed to us (must precede the key switch)
        for _src, body in self.disperse.receipts(CERT_TAG):
            if well_formed(body, CERT):
                self._consider_certificate(body[1], body[2])

        # forward freshly completed certificates to their owners (step 5)
        for message_bytes, signature in self._completed_signatures:
            target = self._cert_wanted.get(message_bytes)
            if target is None:
                continue
            self._certs_completed.add(target)
            if target == self.node_id:
                self._consider_certificate(message_bytes, signature)
            else:
                self.disperse.send(
                    ctx, target, ("cert-deliver", message_bytes, signature),
                    tag=CERT_TAG, retransmit=self.cert_retransmit,
                )

        if ctx.info.phase is Phase.REFRESH:
            self._refresh_round(ctx, inbox)

        for outcome, unit in self.refresher.events():
            if outcome == "failed":
                self._degrade(ctx, unit, "share-refresh-failed")
                self._alert(ctx, unit)

    # -- URfr orchestration -----------------------------------------------------

    def _refresh_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        offset = ctx.info.index_in_phase
        unit = ctx.info.time_unit
        if offset == _O_ANNOUNCE:
            self._begin_refresh(ctx, unit)
        if self._refresh_unit != unit:
            # joined the phase late (e.g. released from a break-in mid-phase):
            # adopt the phase context so later steps still run
            self._reset_refresh(unit)
            if self.keystore.pending is None or self.keystore.pending.unit != unit:
                self.keystore.generate_pending(unit, ctx.rng)
        if offset == _O_PA_START:
            self._start_agreements(ctx, unit, inbox)
        if offset == _O_SIGN:
            self._request_certificates(ctx, unit)
        if offset == _O_SWITCH or (self._switch_deferred and offset > _O_SWITCH):
            # the grace window may never outlive the phase: the last
            # refresh round is an unconditional deadline
            deadline = min(_O_SWITCH + self.cert_grace_rounds, ctx.info.phase_length - 1)
            self._try_switch(ctx, unit, final=offset >= deadline)
        if offset == _O_PART2 and not self._part2_begun:
            self._part2_begun = True
            self.refresher.begin(ctx, unit)

    def _reset_refresh(self, unit: int) -> None:
        """Open unit ``unit``'s refreshment phase with no URfr progress."""
        self._refresh_unit = unit
        self._announced = {}
        self._cert_wanted = {}
        self._obtained_cert = None
        self._certs_completed = set()
        self._switch_deferred = False
        self._part2_begun = False

    def _begin_refresh(self, ctx: NodeContext, unit: int) -> None:
        """Part (I) steps 1-2: fresh keys, announced in the clear."""
        self._reset_refresh(unit)
        self.keystore.generate_pending(unit, ctx.rng)
        my_repr = self.keystore.pending_key_repr()
        for receiver in range(self.n):
            if receiver != self.node_id:
                ctx.send(receiver, NEWKEY_CHANNEL, ("newkey", unit, my_repr))

    def _start_agreements(self, ctx: NodeContext, unit: int, inbox: list[Envelope]) -> None:
        """Part (I) step 3: one PARTIAL-AGREEMENT per announced key
        (first value received per alleged sender counts)."""
        for envelope in ctx.channel_view(inbox, NEWKEY_CHANNEL):
            payload = envelope.payload
            # a key_repr is a tuple, and PA step 1 certifies it, so
            # CERTIFY must be able to encode it; anything else is forged
            if not well_formed(payload, NEWKEY) or payload[1] != unit:
                continue
            try:
                encode_for_hash(payload[2])
            except TypeError:
                continue
            self._announced.setdefault(envelope.sender, payload[2])
        my_repr = self.keystore.pending_key_repr()
        if my_repr is not None:
            self._announced[self.node_id] = my_repr
        for target in range(self.n):
            pa_id = ("pa", unit, target)
            self.pa.start(ctx, pa_id, self._announced.get(target))

    def _request_certificates(self, ctx: NodeContext, unit: int) -> None:
        """Part (I) step 4: threshold-sign every agreed key."""
        for pa_id, value in self.pa.outputs():
            if value is None or not (isinstance(pa_id, tuple) and pa_id[0] == "pa"):
                continue
            _, pa_unit, target = pa_id
            if pa_unit != unit:
                continue
            assertion = certificate_assertion(target, unit, tuple(value))
            message_bytes = pds_message_bytes(assertion, unit)
            self._cert_wanted[message_bytes] = target
            self.signer.request(ctx, message_bytes)

    def _consider_certificate(self, message_bytes: Any, signature: Any) -> None:
        """Check a certificate dispersed to us against our pending key."""
        if self.keystore.pending is None or self._obtained_cert is not None:
            return
        my_repr = self.keystore.pending_key_repr()
        if my_repr is None or self._refresh_unit is None:
            return
        assertion = certificate_assertion(self.node_id, self._refresh_unit, my_repr)
        if message_bytes != pds_message_bytes(assertion, self._refresh_unit):
            return
        if verify_pds_signature(self.state.public, assertion, self._refresh_unit, signature):
            self._obtained_cert = signature

    def _try_switch(self, ctx: NodeContext, unit: int, final: bool) -> None:
        """Part (I) step 5: adopt the new keys — with graceful degradation.

        The classic protocol goes straight to ``φ`` + alert when no valid
        certificate has arrived by ``_O_SWITCH``.  With a positive
        ``cert_grace_rounds`` the switch is instead *deferred*: the old
        unit's keys stay in force (so ``_consider_certificate`` keeps
        working on late-dispersed receipts) and the install is retried
        each round until the certificate shows up or the deadline passes.
        A late install emits a structured ``degraded`` event but neither
        alerts nor fails the unit; only the deadline turns the shortfall
        into the paper's ``φ`` + alert, from which the node recovers at
        the next refreshment phase as usual.
        """
        if self._obtained_cert is None and not final:
            self._switch_deferred = True
            return
        was_deferred = self._switch_deferred
        self._switch_deferred = False
        ok = self.keystore.install_pending(self._obtained_cert)
        if ok and was_deferred:
            self._degrade(ctx, unit, "certificate-late",
                          deferred_rounds=ctx.info.index_in_phase - _O_SWITCH)
        if not ok:
            self._degrade(ctx, unit, "no-certificate")
            self._alert(ctx, unit)
        for receiver, message in self._held_app_sends:
            self.transport.send(ctx, receiver, ("app", message))
        self._held_app_sends = []
        required = self.n - self.state.public.threshold
        if len(self._certs_completed) < required:
            self._degrade(
                ctx, unit, "partial-certification",
                certificates_completed=len(self._certs_completed),
                required=required,
                missing=sorted(set(range(self.n)) - self._certs_completed),
            )

    def _degrade(self, ctx: NodeContext, unit: int, reason: str, **details: Any) -> None:
        """Emit a structured degradation event (output + local log).

        Degradation is the protocol *surviving* a fault, not a security
        failure: the emulation invariants ignore these entries (they are
        2-tuples) while analyses and the runtime monitor collect them.
        """
        event = {
            "node": self.node_id,
            "unit": unit,
            "round": ctx.info.round,
            "reason": reason,
            **details,
        }
        self.degraded_log.append(event)
        ctx.output(("degraded", event))

    def _alert(self, ctx: NodeContext, unit: int) -> None:
        self.alert_units.append(unit)
        ctx.alert()


class UlsProgram(NodeProgram):
    """Stand-alone ULS node: the §3.2 signing interface over UL links.

    External inputs ``("sign", m)`` trigger USign; outputs follow §3.2
    (``asked-to-sign`` / ``signed``) plus ``alert`` per Definition 11.
    """

    def __init__(
        self,
        state: PdsNodeState,
        scheme: SignatureScheme,
        initial_keys: LocalKeys,
        relay_fanout: int | None = None,
        cert_retransmit: int = 0,
        cert_grace_rounds: int = 1,
        *,
        wire: str = "paper",
    ) -> None:
        super().__init__()
        self.core = UlsCore(
            state, scheme, initial_keys, node_id=state.node_id,
            relay_fanout=relay_fanout, cert_retransmit=cert_retransmit,
            cert_grace_rounds=cert_grace_rounds, wire=wire,
        )
        self._pending: dict[bytes, tuple[Any, int]] = {}
        self.signatures: dict[tuple[Any, int], Any] = {}

    @property
    def state(self) -> PdsNodeState:
        return self.core.state

    @property
    def keystore(self) -> KeyStore:
        return self.core.keystore

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        if ctx.info.phase is Phase.SETUP:
            if ctx.info.is_phase_end and "pds_public_key" not in ctx.rom:
                ctx.write_rom("pds_public_key", self.state.public.public_key)
            return
        self.core.on_round(ctx, inbox)
        for value in ctx.external_inputs:
            if isinstance(value, tuple) and len(value) == 2 and value[0] == "sign":
                message = value[1]
                unit = ctx.info.time_unit
                ctx.output(("asked-to-sign", message, unit))
                message_bytes = self.core.request_signature(ctx, message, unit)
                self._pending[message_bytes] = (message, unit)
        for message_bytes, signature in self.core.completed_signatures():
            if message_bytes in self._pending:
                message, unit = self._pending.pop(message_bytes)
                self.signatures[(message, unit)] = signature
                ctx.output(("signed", message, unit))
        # failed signings used to leave their _pending entries behind for
        # the whole run (unbounded under a request stream); drop them with
        # an explicit outcome instead
        for message_bytes in self.core.signer.failed():
            if message_bytes in self._pending:
                message, unit = self._pending.pop(message_bytes)
                ctx.output(("sign-failed", message, unit))
