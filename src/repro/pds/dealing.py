"""One joint-Feldman dealing round: deal, ack, reveal, QUAL.

The AL-model PDS (Thm. 13, [23]) runs it for every signing session's
nonces (:mod:`~repro.pds.threshold_schnorr`), every refresh's sharings of
zero (:mod:`~repro.pds.refresh`) and the distributed UGen's key
(:mod:`~repro.pds.dkg`): dealers send Feldman sub-shares; nodes ack, to
all, the dealings they hold valid sub-shares of, by commitment hash;
dealers reveal the sub-shares of the nodes that did not ack; QUAL is the
dealers with ``n - t`` matching acks, and a node's share of the summed
sharing is the sum of its QUAL sub-shares.  Callers keep their own wire
bodies, schedule and blame.  The round checks the body fields it owns — a commitment is a
tuple of ``t + 1`` ints, an ack item ``(int, bytes)``, a revealed point
``(int, int)`` — and drops what does not fit.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Iterable

from repro.crypto.feldman import (
    FeldmanCommitment,
    FeldmanDealer,
    FeldmanDealing,
    verify_shares_batch,
)
from repro.crypto.group import SchnorrGroup
from repro.crypto.hashing import encode_for_hash, tagged_hash
from repro.crypto.shamir import Share
from repro.wire import fits

__all__ = ["DealingRound", "commitment_of"]


def commitment_of(elements: Any, t: int) -> FeldmanCommitment | None:
    """The commitment ``elements`` stand for, if they are ``t + 1`` ints."""
    return FeldmanCommitment(elements=elements) if fits(elements, (int,) * (t + 1)) else None


class DealingRound:
    """One round's dealings, acks and own sub-shares, seen from node ``me``.

    ``tag`` domain-separates the commitment hashes of the acks.  A
    ``zero`` round takes only sharings of zero (proactive renewal).
    """

    def __init__(self, group: SchnorrGroup, n: int, t: int, me: int, tag: str = "",
                 *, zero: bool = False) -> None:
        self.group = group
        self.n = n
        self.t = t
        self.me = me
        self.tag = tag
        self.zero = zero
        self._dealer = FeldmanDealer(group, n=n, threshold=t)
        #: dealer -> (commitment, my sub-share or None until one is valid)
        self.dealings: dict[int, tuple[FeldmanCommitment, int | None]] = {}
        #: dealer -> acker -> commitment hash
        self.acks: dict[int, dict[int, bytes]] = {}
        #: my dealing's sub-shares f(1..n); the caller erases them (§6)
        self.my_shares: list[int] | None = None
        #: bumped whenever ``dealings`` changes
        self.version = 0

    def _commitment(self, elements: Any) -> FeldmanCommitment | None:
        commitment = commitment_of(elements, self.t)
        if commitment is not None and self.zero:
            return commitment if self._dealer.verify_zero_dealing(commitment) else None
        return commitment

    def _record(self, dealer: int, commitment: FeldmanCommitment, value: int | None) -> None:
        self.dealings[dealer] = (commitment, value)
        self.version += 1

    def deal(self, secret: int, rng: random.Random) -> FeldmanDealing:
        """Deal ``secret`` as dealer ``me``; the caller sends the sub-shares."""
        dealing = self._dealer.deal(secret, rng)
        self.my_shares = [share.value for share in dealing.shares]
        self._record(self.me, dealing.commitment, self.my_shares[self.me])
        return dealing

    def receive(self, items: Iterable[tuple[int, Any, Any]]) -> list[int]:
        """Take ``(dealer, elements, sub-share)`` dealings in arrival order
        (the first per dealer counts) and return the dealers to blame: a
        malformed commitment is dropped; a dealing with a bad sub-share is
        kept without one, so it is not acked.
        :func:`verify_shares_batch` checks each sub-share on its own."""
        blamed: list[int] = []
        queued: dict[int, tuple[FeldmanCommitment, int]] = {}
        for dealer, elements, value in items:
            if dealer in self.dealings or dealer in queued:
                continue
            commitment = self._commitment(elements)
            if commitment is None or not isinstance(value, int):
                blamed.append(dealer)
                if commitment is not None:
                    self._record(dealer, commitment, None)
            else:
                queued[dealer] = (commitment, value)
        checks = [(c, Share(x=self.me + 1, value=v)) for c, v in queued.values()]
        verdicts = verify_shares_batch(self.group, checks)
        for (dealer, (commitment, value)), valid in zip(queued.items(), verdicts):
            if not valid:
                blamed.append(dealer)
            self._record(dealer, commitment, value if valid else None)
        return blamed

    def ack_list(self) -> tuple[tuple[int, bytes], ...]:
        """``(dealer, commitment hash)`` per dealing with a valid sub-share,
        recorded as this node's own acks."""
        acks = []
        for dealer, (commitment, value) in self.dealings.items():
            if value is not None:
                commit_hash = tagged_hash(self.tag, encode_for_hash(commitment.elements))
                acks.append((dealer, commit_hash))
                self.acks.setdefault(dealer, {})[self.me] = commit_hash
        return tuple(acks)

    def receive_acks(self, acker: int, ack_list: tuple) -> None:
        """Record ``acker``'s acks; its first hash per dealer counts."""
        for item in ack_list:
            if fits(item, (int, bytes)):
                self.acks.setdefault(item[0], {}).setdefault(acker, item[1])

    def reveal(self) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]] | None:
        """``(points, elements)`` of this node's dealing for the nodes that
        did not ack it, or None when there is nothing to reveal."""
        if self.my_shares is None:
            return None
        acked = self.acks.get(self.me, {})
        points = tuple(
            (j + 1, self.my_shares[j]) for j in range(self.n) if j != self.me and j not in acked
        )
        return (points, self.dealings[self.me][0].elements) if points else None

    def receive_reveal(self, dealer: int, points: tuple, elements: Any) -> None:
        """Take this node's sub-share from ``dealer``'s reveal, unless it
        holds a valid one.  The commitment is not matched against the
        acked hash (DESIGN.md's robustness scope)."""
        commitment = self._commitment(elements)
        held = self.dealings.get(dealer)
        if commitment is None or (held is not None and held[1] is not None):
            return
        for point in points:
            if fits(point, (int, int)) and point[0] == self.me + 1:
                if commitment.verify_share(self.group, Share(x=point[0], value=point[1])):
                    self._record(dealer, commitment, point[1])

    def qual(self) -> tuple[int, ...]:
        """The dealers acked by at least ``n - t`` nodes under one hash."""
        return tuple(sorted(
            dealer for dealer, acks in self.acks.items()
            if max(Counter(acks.values()).values()) >= self.n - self.t
        ))

    def holds(self, qual: Iterable[int]) -> bool:
        """Whether this node holds a valid sub-share from every dealer."""
        return all(self.dealings.get(dealer, (None, None))[1] is not None for dealer in qual)

    def qual_sum(
        self, qual: Iterable[int], value: int = 0, commitment: FeldmanCommitment | None = None
    ) -> tuple[int, FeldmanCommitment | None]:
        """``value + Σ f_d(me)`` and ``commitment · Π C_d`` over a held QUAL."""
        for dealer in qual:
            dealt, sub_share = self.dealings[dealer]
            value = (value + sub_share) % self.group.q
            commitment = dealt if commitment is None else commitment.combine(self.group, dealt)
        return value, commitment
