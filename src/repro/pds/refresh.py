"""The PDS refresh protocol ``Rfr``: proactive share renewal + recovery.

Run during every refreshment phase (the paper's §3.2 "Refreshment" and the
share-renewal technique of Herzberg et al. [24] that Theorem 13's generic
construction relies on).  Three intertwined sub-protocols, pipelined over
five transport steps:

**Commitment sync** — a node recovering from a break-in cannot trust its
RAM: its copy of the Feldman commitment (and even its share) may have been
corrupted.  Every node sends its current commitment to everyone; each node
adopts the majority commitment among those whose constant term matches the
unchanging public key (in the UL construction that key sits in ROM, which
is the paper's §1.3 trust bootstrap).

**Share recovery** — a node whose share fails verification against the
synced commitment broadcasts a recovery request.  Every intact helper
``k`` deals a *blinding polynomial* ``b`` of degree ``t`` with
``b(j+1) = 0`` (``j`` the requester), distributes its sub-shares, and then
sends the requester ``v_k = x_k + Σ b_d(k+1)``.  Any ``t + 1`` consistent,
commitment-verified values interpolate (at the requester's own index) to
the lost share ``x_j`` — while each individual helper's share stays hidden
behind the blinding (Herzberg et al.'s recovery).

**Renewal** — every node deals a Feldman-verified sharing of *zero*; after
an ack round fixes the qualified set, each node adds the qualified
sub-shares to its share and multiplies the corresponding commitments.
The secret is unchanged, every share is re-randomized, and the old share
is **erased** (§6: a node that skips the erasure would hand its next
intruder last unit's share).  The deal, ack, reveal and QUAL steps are
the joint-Feldman dealing round of :mod:`repro.pds.dealing`, in its
zero-sharing form.

Step schedule (Δ = transport delay, offsets from the phase start):
``0`` sync + zero-deal → ``Δ`` adopt/complain + zero-ack →
``2Δ`` blind-deal + zero-reveal → ``3Δ`` help → ``4Δ`` recover + install.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.feldman import FeldmanCommitment, FeldmanDealer
from repro.crypto.shamir import Share
from repro.pds.dealing import DealingRound, commitment_of
from repro.pds.keys import PdsNodeState
from repro.pds.transport import Transport
from repro.sim.node import NodeContext
from repro.wire import REFRESH, well_formed

__all__ = ["RefreshService"]

_COMMIT_TAG = "repro/rfr/commit"


@dataclass
class _Phase:
    unit: int
    start_round: int
    zeros: DealingRound
    sync_sent: bool = False
    synced: FeldmanCommitment | None = None
    sync_votes: dict[int, tuple[int, ...]] = field(default_factory=dict)
    need_recovery: bool = False
    requesters: set[int] = field(default_factory=set)
    # blinding state, per requester j: dealer -> (commitment, my sub-share)
    blinds: dict[int, dict[int, tuple[FeldmanCommitment, int]]] = field(default_factory=dict)
    helped: bool = False
    # received help values: (blind-set, combined-elements) -> list[(x, v)]
    helps: dict[tuple, list[tuple[int, int]]] = field(default_factory=dict)
    installed: bool = False
    outcome: str | None = None  # "ok" | "failed"


class RefreshService:
    """Drives one refresh phase at a time over a transport.

    Owner contract: call :meth:`on_round` every round (after
    ``transport.begin_round``); call :meth:`begin` at the first round of
    each refreshment phase.  Read :meth:`events` for completions.

    The service takes no refresh wire format (:mod:`repro.wire`): its
    transport decides how bodies travel, and on either format every
    intact node deals a blind and sends help to every requester.
    """

    def __init__(self, state: PdsNodeState, transport: Transport) -> None:
        self.state = state
        self.transport = transport
        self._phase: _Phase | None = None
        self._events: list[tuple[str, int]] = []
        self._completed_start: int | None = None
        #: blame record: ``(unit, dealer)`` for every zero-dealing received
        #: from ``dealer`` that this node refused to ack (bad share, wrong
        #: degree, or non-zero constant).
        self.rejected_dealers: set[tuple[int, int]] = set()
        #: when True (default), a refresh self-starts at the first round of
        #: every refreshment phase; ULS turns this off and calls begin()
        #: itself once Part (I) has finished
        self.auto_start = True

    def begin(self, ctx: NodeContext, unit: int) -> None:
        """Start the refresh for time unit ``unit`` (phase-start round).

        Normally implicit: :meth:`on_round` self-starts whenever it runs
        during a refreshment phase, anchored at the phase's first round —
        so a node that was broken at the phase boundary and resumes one or
        two rounds in still joins the same phase (a *late joiner*: it
        skips the steps whose rounds passed, which the reveal machinery
        compensates for).

        Performs step 0 (sync + zero-deal) immediately, so ``begin`` may
        be called after this round's :meth:`on_round` already ran (the ULS
        Part (II) hand-off does exactly that)."""
        self._phase = self._open(unit, ctx.info.round)
        self._send_sync_and_zero_deal(ctx, self._phase)

    def _open(self, unit: int, start_round: int) -> _Phase:
        public = self.state.public
        zeros = DealingRound(public.group, public.n, public.threshold, self.state.node_id,
                             _COMMIT_TAG, zero=True)
        return _Phase(unit, start_round, zeros)

    def events(self) -> list[tuple[str, int]]:
        """Completed refreshes this round: ``("ok"|"failed", unit)``."""
        return list(self._events)

    # -- round processing ----------------------------------------------------

    def on_round(self, ctx: NodeContext) -> None:
        self._events = []
        self._autostart(ctx)
        self._ingest(ctx)
        phase = self._phase
        if phase is None or phase.installed:
            return
        delay = self.transport.delay
        offset = ctx.info.round - phase.start_round
        if offset == 0:
            self._send_sync_and_zero_deal(ctx, phase)
        elif offset == delay:
            self._adopt_commitment_and_complain(ctx, phase)
            self._send_zero_ack(ctx, phase)
        elif offset == 2 * delay:
            self._send_blinds(ctx, phase)
            self._send_zero_reveals(ctx, phase)
        elif offset == 3 * delay:
            self._send_helps(ctx, phase)
        elif offset >= 4 * delay:
            self._finish(ctx, phase)

    def _autostart(self, ctx: NodeContext) -> None:
        from repro.sim.clock import Phase as ClockPhase

        if not self.auto_start or ctx.info.phase is not ClockPhase.REFRESH:
            return
        phase_start = ctx.info.round - ctx.info.index_in_phase
        if self._completed_start == phase_start:
            return
        if self._phase is None or self._phase.start_round != phase_start:
            self._phase = self._open(ctx.info.time_unit, phase_start)

    # -- inbound -----------------------------------------------------------------

    def _ingest(self, ctx: NodeContext) -> None:
        phase = self._phase
        if phase is None:
            return
        for accepted in self.transport.accepted_view():
            body = accepted.body
            if not well_formed(body, REFRESH):
                continue
            kind = body[0]
            if kind == "rf-zdeal":
                self._on_zero_deal(accepted.sender, body, phase)
            elif kind == "rf-sync":
                self._on_sync(accepted.sender, body, phase)
            elif kind == "rf-zack":
                self._on_zero_ack(accepted.sender, body, phase)
            elif kind == "rf-need":
                self._on_need(accepted.sender, body, phase)
            elif kind == "rf-blind":
                self._on_blind(ctx, accepted.sender, body, phase)
            elif kind == "rf-zreveal":
                self._on_zero_reveal(accepted.sender, body, phase)
            elif kind == "rf-help":
                self._on_help(accepted.sender, body, phase)

    def _on_sync(self, sender: int, body: tuple, phase: _Phase) -> None:
        _, unit, elements = body
        degree = self.state.public.threshold
        if unit == phase.unit and commitment_of(elements, degree) is not None:
            phase.sync_votes.setdefault(sender, elements)

    def _on_zero_deal(self, dealer: int, body: tuple, phase: _Phase) -> None:
        """Take one zero-dealing; the first per dealer counts, and one
        the dealing round refuses blames its dealer."""
        _, unit, elements, share_value = body
        if unit == phase.unit:
            for blamed in phase.zeros.receive([(dealer, elements, share_value)]):
                self.rejected_dealers.add((phase.unit, blamed))

    def _on_zero_ack(self, acker: int, body: tuple, phase: _Phase) -> None:
        _, unit, ack_list = body
        if unit == phase.unit:
            phase.zeros.receive_acks(acker, ack_list)

    def _on_need(self, sender: int, body: tuple, phase: _Phase) -> None:
        if body[1] == phase.unit:
            phase.requesters.add(sender)

    def _on_blind(self, ctx: NodeContext, dealer: int, body: tuple, phase: _Phase) -> None:
        _, unit, requester, elements, share_value = body
        # blinding polynomials have degree exactly t (combine() requires it)
        commitment = commitment_of(elements, self.state.public.threshold)
        if unit != phase.unit or commitment is None:
            return
        group = self.state.public.group
        # a blinding polynomial must vanish at the requester's index
        if commitment.share_image(group, requester + 1) != group.identity:
            return
        if not commitment.verify_share(group, Share(x=self.state.share_index, value=share_value)):
            return
        phase.blinds.setdefault(requester, {}).setdefault(dealer, (commitment, share_value))

    def _on_zero_reveal(self, dealer: int, body: tuple, phase: _Phase) -> None:
        _, unit, points, elements = body
        if unit == phase.unit:
            phase.zeros.receive_reveal(dealer, points, elements)

    def _on_help(self, sender: int, body: tuple, phase: _Phase) -> None:
        _, unit, helper_index, value, blind_set, combined_elements = body
        combined = commitment_of(combined_elements, self.state.public.threshold)
        if unit != phase.unit or not phase.need_recovery or combined is None:
            return
        if not all(isinstance(dealer, int) for dealer in blind_set):
            return  # the blind set keys the help buckets
        group = self.state.public.group
        # the combined polynomial must agree with the key sharing at my index
        if phase.synced is not None:
            mine = phase.synced.share_image(group, self.state.share_index)
            if combined.share_image(group, self.state.share_index) != mine:
                return
        # and the helper's value must lie on the combined polynomial
        if not combined.verify_share(group, Share(x=helper_index, value=value)):
            return
        key = (blind_set, combined_elements)
        bucket = phase.helps.setdefault(key, [])
        if all(x != helper_index for x, _ in bucket):
            bucket.append((helper_index, value))

    # -- outbound steps -------------------------------------------------------------

    def _send_sync_and_zero_deal(self, ctx: NodeContext, phase: _Phase) -> None:
        if phase.sync_sent:
            return
        phase.sync_sent = True
        elements = tuple(self.state.key_commitment.elements)
        phase.sync_votes[ctx.node_id] = elements
        self.transport.send_to_all(ctx, ("rf-sync", phase.unit, elements))

        dealing = phase.zeros.deal(0, ctx.rng)
        for receiver in range(self.state.public.n):
            if receiver == ctx.node_id:
                continue
            self.transport.send(
                ctx,
                receiver,
                (
                    "rf-zdeal",
                    phase.unit,
                    dealing.commitment.elements,
                    dealing.shares[receiver].value,
                ),
            )

    def _adopt_commitment_and_complain(self, ctx: NodeContext, phase: _Phase) -> None:
        group = self.state.public.group
        anchor = self._anchor_key(ctx)
        counts: dict[tuple[int, ...], int] = {}
        for elements in phase.sync_votes.values():
            counts[elements] = counts.get(elements, 0) + 1
        best: tuple[int, ...] | None = None
        for elements, count in sorted(counts.items(), key=lambda kv: -kv[1]):
            if count < self.state.public.threshold + 1:
                continue
            if len(elements) != self.state.public.threshold + 1:
                continue  # a key commitment always has degree exactly t
            candidate = FeldmanCommitment(elements=elements)
            if anchor is not None and candidate.public_constant != anchor:
                continue
            best = elements
            break
        if best is not None:
            phase.synced = FeldmanCommitment(elements=best)
            self.state.key_commitment = phase.synced
        else:
            phase.synced = self.state.key_commitment  # fall back to own copy
        if not self.state.share_is_valid():
            phase.need_recovery = True
            phase.requesters.add(ctx.node_id)
            self.transport.send_to_all(ctx, ("rf-need", phase.unit))

    def _anchor_key(self, ctx: NodeContext) -> int | None:
        """The unchanging public key: from ROM if present (UL model),
        else from the state (AL model, where RAM is trusted enough)."""
        rom_value = ctx.rom.get("pds_public_key")
        if rom_value is not None:
            return rom_value
        return self.state.public.public_key

    def _send_zero_ack(self, ctx: NodeContext, phase: _Phase) -> None:
        self.transport.send_to_all(ctx, ("rf-zack", phase.unit, phase.zeros.ack_list()))

    def _send_blinds(self, ctx: NodeContext, phase: _Phase) -> None:
        if phase.need_recovery or not self.state.share_is_valid():
            return  # cannot help others while own share is suspect
        public = self.state.public
        field = public.group.scalar_field
        for requester in sorted(phase.requesters):
            if requester == ctx.node_id:
                continue
            target = requester + 1
            # b(z) = sum_{k=1..t} a_k (z^k - target^k): degree t, b(target) = 0
            coefficients = [0] * (public.threshold + 1)
            constant = 0
            for k in range(1, public.threshold + 1):
                a_k = field.random_element(ctx.rng)
                coefficients[k] = a_k
                constant = (constant - a_k * pow(target, k, field.order)) % field.order
            coefficients[0] = constant
            from repro.crypto.field import Polynomial

            poly = Polynomial(field, coefficients)
            dealer = FeldmanDealer(public.group, n=public.n, threshold=public.threshold)
            commitment = dealer.commit(poly)
            my_subshare = poly.evaluate(self.state.share_index)
            phase.blinds.setdefault(requester, {}).setdefault(
                ctx.node_id, (commitment, my_subshare)
            )
            for receiver in range(public.n):
                if receiver == ctx.node_id:
                    continue
                self.transport.send(
                    ctx,
                    receiver,
                    (
                        "rf-blind",
                        phase.unit,
                        requester,
                        tuple(commitment.elements),
                        poly.evaluate(receiver + 1),
                    ),
                )

    def _send_zero_reveals(self, ctx: NodeContext, phase: _Phase) -> None:
        reveal = phase.zeros.reveal()
        if reveal is not None:
            self.transport.send_to_all(ctx, ("rf-zreveal", phase.unit) + reveal)

    def _send_helps(self, ctx: NodeContext, phase: _Phase) -> None:
        if phase.helped or phase.need_recovery or not self.state.share_is_valid():
            return
        phase.helped = True
        group = self.state.public.group
        q = group.q
        for requester in sorted(phase.requesters):
            if requester == ctx.node_id:
                continue
            blinds = phase.blinds.get(requester, {})
            if not blinds:
                continue
            blind_set = tuple(sorted(blinds))
            combined = phase.synced or self.state.key_commitment
            total = self.state.share.value
            for dealer in blind_set:
                commitment, subshare = blinds[dealer]
                combined = combined.combine(group, commitment)
                total = (total + subshare) % q
            self.transport.send(
                ctx,
                requester,
                (
                    "rf-help",
                    phase.unit,
                    self.state.share_index,
                    total,
                    blind_set,
                    tuple(combined.elements),
                ),
            )

    # -- completion ---------------------------------------------------------------

    def _finish(self, ctx: NodeContext, phase: _Phase) -> None:
        phase.installed = True
        group = self.state.public.group
        field = group.scalar_field
        needed = self.state.public.threshold + 1

        # 1. recover the old share if needed
        if phase.need_recovery:
            for points in phase.helps.values():
                if len(points) < needed:
                    continue
                value = field.interpolate_at(self.state.share_index, sorted(points)[:needed])
                candidate = Share(x=self.state.share_index, value=value)
                base = phase.synced or self.state.key_commitment
                if base.verify_share(group, candidate):
                    self.state.share = candidate
                    self.state.key_commitment = base
                    break

        # 2. apply the renewal if we hold every qualified sub-share
        zeros = phase.zeros
        qual = zeros.qual()
        if qual and zeros.holds(qual) and self.state.share_is_valid():
            new_value, new_commitment = zeros.qual_sum(
                qual, self.state.share.value, phase.synced or self.state.key_commitment
            )
            self.state.install_share(
                Share(x=self.state.share_index, value=new_value),
                new_commitment,
                unit=phase.unit,
            )
            zeros.my_shares = None  # erase dealt sub-shares (§6)
            phase.outcome = "ok"
        else:
            # keep whatever commitment consensus we reached; share may be bad
            phase.outcome = "failed"
            self.state.unit = phase.unit
        self._events.append((phase.outcome, phase.unit))
        self._completed_start = phase.start_round
        self._phase = None
