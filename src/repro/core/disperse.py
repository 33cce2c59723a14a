"""Protocol DISPERSE — the two-phase echo (paper Fig. 2).

``DISPERSE(m, i, j)`` sends a string from ``N_i`` to ``N_j`` through every
possible length-≤2 path:

1. ``N_i`` sends "forward m to N_j" to all other nodes;
2. a node receiving such a message sends "forwarding m from N_i" to
   ``N_j``;
3. ``N_j`` marks every string for which it received a forwarding as
   *received* from ``N_i``.

DISPERSE guarantees **delivery only** (Lemma 15): if sender and receiver
are both s-operational with ``s <= (n-1)/2``, some non-broken node has
reliable links to both and relays the message.  It guarantees **no
authenticity** — anyone can inject "forwarding m from N_i" — which is why
AUTH-SEND layers CERTIFY on top.

Receipts are normalized to land exactly two rounds after the send: a
directly-received "forward" (the ``i → j`` link itself) is buffered one
round so the receiver sees one receipt event per send, whichever paths
survived.  Consumers multiplex via ``tag``.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.perf.cache import canonical_probe
from repro.sim.messages import Envelope
from repro.sim.node import NodeContext

__all__ = ["DisperseService", "DISPERSE_CHANNEL"]

DISPERSE_CHANNEL = "disperse"


class DisperseService:
    """Per-node DISPERSE engine; owner calls :meth:`on_round` first each
    round, then any number of :meth:`send`; receipts via :meth:`receipts`.

    Args:
        relay_fanout: when set, implements the §6 "Relaxations for small
            t": step 1 floods to only this many parties (typically
            ``2t + 1``) instead of all ``n - 1``, cutting the complexity
            from O(n²) to O(nt) messages.  The relay set is the lowest
            node ids (a fixed, commonly-known choice), always including
            the destination.
        retransmit: default number of bounded retransmissions per send
            (0 = classic fire-and-forget DISPERSE).  Each retransmission
            re-floods the same string one round-trip (2 rounds) after the
            previous flood — Lemma 15 needs only one relay round, so
            retrying buys delivery through links that were unreliable at
            the first attempt but recover within the unit.  Pending
            retransmissions never cross a time-unit boundary: a retry
            whose turn comes in a later unit is discarded and counted in
            ``retransmissions_expired`` (stale strings must not pollute
            the next refreshment phase).
    """

    #: rounds between retransmission attempts (one DISPERSE round trip)
    RETX_INTERVAL = 2

    def __init__(self, relay_fanout: int | None = None, retransmit: int = 0) -> None:
        # receipts that become visible next round: round -> list
        self._buffered: dict[int, list[tuple[str, int, Any]]] = {}
        self._current: list[tuple[str, int, Any]] = []  # (tag, claimed_src, body)
        # relay-dedup keys embed the round number, so entries from past
        # rounds can never match again — the set is cleared whenever the
        # round advances and stays O(this round's distinct floods) instead
        # of growing without bound across units
        self._relayed: set[Hashable] = set()
        self._relayed_round = -1
        # lazily tag-binned view of _current (consumers poll several tags
        # per round; binning once beats a full scan per receipts() call)
        self._receipts_by_tag: dict[str, list[tuple[int, Any]]] | None = None
        if retransmit < 0:
            raise ValueError(f"retransmit must be >= 0, got {retransmit}")
        self.relay_fanout = relay_fanout
        self.retransmit = retransmit
        self.messages_relayed = 0
        self.retransmissions_sent = 0
        self.retransmissions_expired = 0
        # due round -> [(receiver, body, tag, retries_left, time_unit)]
        self._retx_queue: dict[int, list[tuple[int, Any, str, int, int]]] = {}
        # full-flood target list; identical for every send by this node
        self._all_targets: list[int] | None = None
        # fanout-restricted relay list per receiver; the choice is a pure
        # function of (node_id, receiver, fanout, n), all fixed for a run
        self._fanout_targets: dict[int, list[int]] = {}

    def _targets(self, ctx: NodeContext, receiver: int) -> list[int]:
        if self.relay_fanout is None or self.relay_fanout >= ctx.n - 1:
            targets = self._all_targets
            if targets is None or len(targets) != ctx.n - 1:
                targets = self._all_targets = [
                    node for node in range(ctx.n) if node != ctx.node_id
                ]
            return targets
        targets = self._fanout_targets.get(receiver)
        if targets is not None:
            return targets
        targets = []
        for node in range(ctx.n):
            if node in (ctx.node_id, receiver):
                continue
            targets.append(node)
            if len(targets) >= self.relay_fanout - 1:
                break
        targets.append(receiver)
        self._fanout_targets[receiver] = targets
        return targets

    def _bcast_targets(self, ctx: NodeContext) -> list[int]:
        """Relay set of a broadcast flood: the lowest ``relay_fanout`` node
        ids other than the sender (all of them without a fanout limit) —
        the same fixed, commonly-known choice as :meth:`_targets`, minus
        the per-destination special-casing a broadcast doesn't have."""
        if self.relay_fanout is None or self.relay_fanout >= ctx.n - 1:
            targets = self._all_targets
            if targets is None or len(targets) != ctx.n - 1:
                targets = self._all_targets = [
                    node for node in range(ctx.n) if node != ctx.node_id
                ]
            return targets
        targets = self._fanout_targets.get(-1)
        if targets is None:
            targets = [node for node in range(ctx.n) if node != ctx.node_id]
            targets = targets[: self.relay_fanout]
            self._fanout_targets[-1] = targets
        return targets

    def broadcast(self, ctx: NodeContext, body: Any, tag: str = "") -> None:
        """One flood addressed to *every* node: "forward body to all".

        Each relay echoes a single ``bcsting`` copy to all other nodes and
        buffers its own receipt, so every node marks the string received
        exactly two rounds after the send — the same receipt timing as
        :meth:`send` — at a total cost of ~``f·(n-1)`` envelopes instead
        of the ``(n-1)·(2f-1)`` of per-destination dispersal.  Delivery
        inherits Lemma 15 per receiver: any non-broken relay with reliable
        links to sender and that receiver carries the string.
        """
        payload = ("bcst", tag, ctx.node_id, body)
        ctx.fanout(self._bcast_targets(ctx), DISPERSE_CHANNEL, payload)

    def send(
        self, ctx: NodeContext, receiver: int, body: Any, tag: str = "",
        retransmit: int | None = None,
    ) -> None:
        """Step 1: flood "forward body to receiver" to the relay set
        (all other nodes unless ``relay_fanout`` restricts it).

        ``retransmit`` overrides the service default for this send.
        """
        self._flood(ctx, receiver, body, tag)
        retries = self.retransmit if retransmit is None else retransmit
        if retries > 0:
            due = ctx.info.round + self.RETX_INTERVAL
            self._retx_queue.setdefault(due, []).append(
                (receiver, body, tag, retries, ctx.info.time_unit)
            )

    def _flood(self, ctx: NodeContext, receiver: int, body: Any, tag: str) -> None:
        payload = ("fwd", tag, ctx.node_id, receiver, body)
        ctx.fanout(self._targets(ctx, receiver), DISPERSE_CHANNEL, payload)

    def on_round(self, ctx: NodeContext, inbox: list[Envelope]) -> None:
        """Steps 2-3: relay foreign forwards, collect receipts (and fire
        any retransmissions that come due this round)."""
        round_number = ctx.info.round
        for receiver, body, tag, retries, unit in self._retx_queue.pop(round_number, ()):
            if ctx.info.time_unit != unit:
                self.retransmissions_expired += 1
                continue
            self._flood(ctx, receiver, body, tag)
            self.retransmissions_sent += 1
            if retries > 1:
                self._retx_queue.setdefault(round_number + self.RETX_INTERVAL, []).append(
                    (receiver, body, tag, retries - 1, unit)
                )
        self._current = self._buffered.pop(round_number, [])
        self._receipts_by_tag = None
        if round_number != self._relayed_round:
            # relay keys embed their round; anything left over is stale
            self._relayed.clear()
            self._relayed_round = round_number
        emitted: set[Hashable] = set()
        # the flood loop touches every disperse envelope; bind the
        # per-round invariants (dedup key memo, own id, dedup set, outbox)
        # to locals and inline the memo probe and the relay send so the
        # per-envelope cost is free of attribute lookups and function-call
        # overhead
        key_entries, key_miss = canonical_probe()
        node_id = ctx.node_id
        n = ctx.n
        outbox_append = ctx.outbox.append
        relayed = self._relayed
        current = self._current
        relayed_count = 0

        for envelope in ctx.channel_view(inbox, DISPERSE_CHANNEL):
            payload = envelope.payload
            if not isinstance(payload, tuple) or len(payload) != 5:
                if (
                    isinstance(payload, tuple)
                    and len(payload) == 4
                    and payload[0] in ("bcst", "bcsting")
                ):
                    kind, tag, src, body = payload
                    entry = key_entries.get(id(body))
                    key = (
                        entry[1]
                        if entry is not None and entry[0] is body
                        else key_miss(body)
                    )
                    if kind == "bcst":
                        # a broadcast relay is also a receiver: buffer the
                        # direct receipt (uniform +2 timing) and echo one
                        # copy to everyone else
                        self._buffer(round_number + 1, tag, src, body)
                        relay_key = ("b", round_number, tag, src, key)
                        if relay_key in relayed:
                            continue
                        relayed.add(relay_key)
                        echo = ("bcsting", tag, src, body)
                        for dst in range(n):
                            if dst == node_id or dst == src:
                                continue
                            relayed_count += 1
                            outbox_append(
                                Envelope(
                                    node_id, dst, DISPERSE_CHANNEL, echo,
                                    round_number,
                                )
                            )
                    else:
                        receipt_key = (round_number, tag, src, key)
                        if receipt_key in emitted:
                            continue
                        emitted.add(receipt_key)
                        current.append((tag, src, body))
                continue
            kind, tag, src, dst, body = payload
            if kind == "fwd":
                if dst == node_id:
                    # the direct path; buffer so receipt timing is uniform
                    self._buffer(round_number + 1, tag, src, body)
                else:
                    entry = key_entries.get(id(body))
                    key = (
                        entry[1]
                        if entry is not None and entry[0] is body
                        else key_miss(body)
                    )
                    relay_key = ("r", round_number, tag, src, dst, key)
                    if relay_key in relayed:
                        continue
                    relayed.add(relay_key)
                    relayed_count += 1
                    # same validation + envelope as ctx.send(dst, ...)
                    if not 0 <= dst < n:
                        raise ValueError(f"receiver {dst} out of range")
                    outbox_append(
                        Envelope(
                            node_id,
                            dst,
                            DISPERSE_CHANNEL,
                            ("fwding", tag, src, dst, body),
                            round_number,
                        )
                    )
            elif kind == "fwding":
                if dst != node_id:
                    continue
                entry = key_entries.get(id(body))
                key = (
                    entry[1]
                    if entry is not None and entry[0] is body
                    else key_miss(body)
                )
                receipt_key = (round_number, tag, src, key)
                if receipt_key in emitted:
                    continue
                emitted.add(receipt_key)
                current.append((tag, src, body))
        self.messages_relayed += relayed_count

        # dedup against the buffered direct copies that were released now
        deduped: list[tuple[str, int, Any]] = []
        seen: set[Hashable] = set()
        for tag, src, body in current:
            entry = key_entries.get(id(body))
            key = (
                tag,
                src,
                entry[1] if entry is not None and entry[0] is body else key_miss(body),
            )
            if key in seen:
                continue
            seen.add(key)
            deduped.append((tag, src, body))
        self._current = deduped

    def _buffer(self, round_number: int, tag: str, src: int, body: Any) -> None:
        self._buffered.setdefault(round_number, []).append((tag, src, body))

    def receipts(self, tag: str = "") -> list[tuple[int, Any]]:
        """Strings marked received this round under ``tag``, as
        ``(claimed_source, body)`` — the source is NOT authenticated.

        Callers must treat the result as read-only: every call for the
        same tag this round shares one tag-binned list built in a single
        pass over the receipts.
        """
        bins = self._receipts_by_tag
        if bins is None:
            bins = self._receipts_by_tag = {}
            for t, src, body in self._current:
                bin_ = bins.get(t)
                if bin_ is None:
                    bin_ = bins[t] = []
                bin_.append((src, body))
        return bins.get(tag, [])
