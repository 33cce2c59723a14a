"""Distributed key generation: ``UGen`` as an actual protocol (§4.2.1).

:func:`build_uls_states` realizes the paper's remark that the set-up
"can be replaced by an execution of a centralized set-up algorithm"; this
module provides the *distributed formalization* the paper actually
writes: during the adversary-free set-up the nodes

1. run joint-Feldman DKG — every node deals a Feldman sharing of a random
   scalar; shares are summed and commitments multiplied, so the global
   secret ``x = Σ r_i`` is never held by anyone (not even a dealer).  This
   is the dealing round of :mod:`repro.pds.dealing` in which every dealer
   qualifies: the set-up is reliable, so no ack or reveal step is needed;
2. generate their unit-0 local keys of the centralized scheme; and
3. certify every node's key with the freshly-shared threshold signer.

:func:`run_distributed_ugen` executes this as its own AL-model run (the
set-up phase is reliable and adversary-free by assumption) and returns
exactly the triple that :func:`~repro.core.uls.build_uls_states`
produces — drop-in interchangeable, minus the dealer.
"""

from __future__ import annotations

from repro.core.keystore import LocalKeys, certificate_assertion
from repro.crypto.group import SchnorrGroup
from repro.crypto.shamir import Share
from repro.crypto.signature import SignatureScheme
from repro.pds.dealing import DealingRound
from repro.pds.keys import PdsNodeState, PdsPublic
from repro.pds.threshold_schnorr import ThresholdSigner, pds_message_bytes
from repro.pds.transport import DirectTransport
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase, Schedule
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext, NodeProgram
from repro.sim.runner import ALRunner
from repro.wire import DKG, well_formed

__all__ = ["DkgUGenProgram", "run_distributed_ugen"]

_DKG_CHANNEL = "dkg"


class DkgUGenProgram(NodeProgram):
    """One node of the distributed UGen (see module docstring).

    After the run, :attr:`state` holds the node's PDS state and
    :attr:`initial_keys` its certified unit-0 local keys.
    """

    def __init__(self, group: SchnorrGroup, n: int, t: int, scheme: SignatureScheme) -> None:
        super().__init__()
        self.group = group
        self.t = t
        self.scheme = scheme
        self.state: PdsNodeState | None = None
        self.initial_keys: LocalKeys | None = None
        self.transport = DirectTransport(channel="pds")
        self.signer: ThresholdSigner | None = None
        #: the key dealing round; dropped with its sub-shares after combine
        self._round: DealingRound | None = None
        self._peer_reprs: dict[int, tuple] = {}
        self._keypair = None
        self._requested = False

    # -- phase 1: joint-Feldman DKG (set-up rounds 0-1) ----------------------

    def _deal(self, ctx: NodeContext) -> None:
        self._round = DealingRound(self.group, self.n, self.t, ctx.node_id)
        secret = self.group.random_scalar(ctx.rng)
        dealing = self._round.deal(secret, ctx.rng)
        for receiver in range(self.n):
            if receiver != ctx.node_id:
                ctx.send(receiver, _DKG_CHANNEL,
                         ("deal", dealing.commitment.elements,
                          dealing.shares[receiver].value))

    def _combine(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        # the dealing round checks each dealing on its own.  Defensive:
        # the set-up is reliable by assumption, but a malformed payload
        # is dropped rather than crash the combine step
        self._round.receive(
            (envelope.sender,) + envelope.payload[1:]
            for envelope in ctx.channel_view(inbox, _DKG_CHANNEL)
            if well_formed(envelope.payload, DKG) and envelope.payload[0] == "deal"
        )
        everyone = range(self.n)
        if not self._round.holds(everyone):
            raise RuntimeError(
                f"DKG expects all {self.n} valid dealings during the reliable set-up"
            )
        total, combined = self._round.qual_sum(everyone)
        public = PdsPublic(
            group=self.group,
            public_key=combined.public_constant,
            n=self.n,
            threshold=self.t,
        )
        self.state = PdsNodeState(
            public=public,
            node_id=ctx.node_id,
            share=Share(x=ctx.node_id + 1, value=total),
            key_commitment=combined,
        )
        self.signer = ThresholdSigner(self.state, self.transport)
        self._round = None  # the individual sub-shares are erased

    # -- phase 2: local keys + threshold certificates ---------------------------

    def step(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        info = ctx.info
        if info.phase is Phase.SETUP:
            if info.index_in_phase == 0:
                self._deal(ctx)
            elif info.index_in_phase == 1:
                self._combine(ctx, inbox)
            if info.is_phase_end and "pds_public_key" not in ctx.rom:
                ctx.write_rom("pds_public_key", self.state.public.public_key)
            return

        self.transport.begin_round(ctx, inbox)
        self.signer.on_round(ctx)

        if info.phase is Phase.NORMAL and info.index_in_phase == 0:
            self._keypair = self.scheme.generate(ctx.rng)
            my_repr = self.scheme.key_repr(self._keypair.verify_key)
            self._peer_reprs[ctx.node_id] = my_repr
            ctx.broadcast(_DKG_CHANNEL, ("key", my_repr))

        for envelope in ctx.channel_view(inbox, _DKG_CHANNEL):
            payload = envelope.payload
            if well_formed(payload, DKG) and payload[0] == "key":
                self._peer_reprs.setdefault(envelope.sender, payload[1])

        if (
            info.phase is Phase.NORMAL
            and info.index_in_phase == 1
            and not self._requested
        ):
            self._requested = True
            for node, key_repr in sorted(self._peer_reprs.items()):
                assertion = certificate_assertion(node, 0, tuple(key_repr))
                self.signer.request(ctx, pds_message_bytes(assertion, 0))

        for message_bytes, signature in self.signer.completed():
            my_repr = self.scheme.key_repr(self._keypair.verify_key)
            assertion = certificate_assertion(ctx.node_id, 0, tuple(my_repr))
            if message_bytes == pds_message_bytes(assertion, 0):
                self.initial_keys = LocalKeys(
                    unit=0, keypair=self._keypair, certificate=signature
                )


def run_distributed_ugen(
    group: SchnorrGroup,
    scheme: SignatureScheme,
    n: int,
    t: int,
    seed: int | str = 0,
) -> tuple[PdsPublic, list[PdsNodeState], list[LocalKeys]]:
    """Execute the distributed UGen and return ``(public, states, keys)``
    — the same triple as :func:`~repro.core.uls.build_uls_states`, but
    produced by an actual protocol run with no trusted dealer."""
    programs = [DkgUGenProgram(group, n, t, scheme) for _ in range(n)]
    schedule = Schedule(setup_rounds=3, refresh_rounds=1, normal_rounds=8)
    runner = ALRunner(programs, PassiveAdversary(), schedule, seed=seed)
    runner.run(units=1)
    for program in programs:
        if program.state is None or program.initial_keys is None:
            raise RuntimeError(f"distributed UGen incomplete at node {program.node_id}")
    public = programs[0].state.public
    return (
        public,
        [program.state for program in programs],
        [program.initial_keys for program in programs],
    )
