"""Canonical transcript digests for determinism replay checks.

A transcript digest is a SHA-256 over the full
:class:`~repro.sim.transcript.Execution` — round records, system log,
node outputs and adversary output — in a *canonical, process-independent*
form: sets are sorted (frozenset iteration order depends on
``PYTHONHASHSEED``), dicts are sorted by key, envelopes are flattened.
Two runs digest identically iff they produced bit-identical transcripts.

This is the primitive behind every determinism claim in the repo: the
golden-digest test (``tests/test_golden_digests.py``) replays the E14 and
E16 points against committed per-seed digests with it (via the
``benchmarks/common.py`` re-export), and the adaptive chaos campaigns
(:mod:`repro.faults.campaign`, experiment E15) hash replayed campaign
runs to prove that the same campaign seed reproduces every per-run
transcript exactly.
"""

from __future__ import annotations

import hashlib

from repro.sim.messages import Envelope

__all__ = [
    "stable_form",
    "transcript_digest",
    "outcome_digest",
    "RoundsDigest",
    "rounds_digest",
]


def stable_form(value):
    """A canonical, process-independent form of transcript values.

    The digests below hash ``repr`` of this form; they render it piece by
    piece instead of building it (``tests/analysis/test_digest.py`` holds
    them to this definition)."""
    if isinstance(value, Envelope):
        return ("Env", value.sender, value.receiver, value.channel,
                stable_form(value.payload), value.round_sent)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((stable_form(v) for v in value), key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(
            sorted(((stable_form(k), stable_form(v)) for k, v in value.items()), key=repr)
        )
    if isinstance(value, (tuple, list)):
        return tuple(stable_form(v) for v in value)
    return value


class _CanonicalHash:
    """SHA-256 over ``repr(stable_form(value))`` of the values written to
    it, without ever holding a whole round's rendering.

    Sequences are streamed element by element.  A dict's items are
    streamed in the order their full renderings sort in whenever the keys
    alone decide that order — always, for the receiver-keyed delivery
    plans; otherwise the dict is rendered whole and sorted.  Containers
    (a flood hands one body object to every relay and receiver) are
    memoized by ``id`` within one round, which is sound while the caller
    keeps the round's objects alive; the memo is bounded and dropped after
    every round.
    """

    _MEMO_LIMIT = 1 << 16
    _CHUNK = 1 << 16

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._memo: dict[int, str] = {}
        self._parts: list[str] = []
        self._size = 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= self._CHUNK:
            self._flush()

    def _flush(self) -> None:
        self._hash.update("".join(self._parts).encode("utf-8"))
        self._parts = []
        self._size = 0

    def hexdigest(self) -> str:
        self._flush()
        return self._hash.hexdigest()

    def round(self, info, sent, delivered, broken, operational, unreliable_links) -> None:
        """Write one round's canonical tuple ``(info, stable forms...)``."""
        self.write(f"({info!r}")
        for part in (sent, delivered, broken, operational, unreliable_links):
            self.write(", ")
            self.stream(part)
        self.write(")")
        self._memo.clear()

    def stream(self, value) -> None:
        """Write ``repr(stable_form(value))`` piece by piece."""
        if isinstance(value, (Envelope, set, frozenset)):
            self.write(self.text(value))
        elif isinstance(value, dict):
            heads = sorted(
                ((f"({self.text(key)}, ", item) for key, item in value.items()),
                key=lambda head: head[0],
            )
            if any(b.startswith(a) for (a, _), (b, _) in zip(heads, heads[1:])):
                self.write(self.text(value))
                return
            self.write("('dict'" if heads else "('dict',")
            for head, item in heads:
                self.write(", " + head)
                self.stream(item)
                self.write(")")
            self.write(")")
        elif isinstance(value, (tuple, list)):
            if not value:
                self.write("()")
                return
            separator = "("
            for item in value:
                if type(item) is Envelope:
                    self.write(separator + self.text(item))
                else:
                    self.write(separator)
                    self.stream(item)
                separator = ", "
            self.write(",)" if len(value) == 1 else ")")
        else:
            self.write(repr(value))

    def text(self, value) -> str:
        """``repr(stable_form(value))`` as one string (containers memoized)."""
        if isinstance(value, Envelope):
            return (
                f"('Env', {value.sender!r}, {value.receiver!r}, {value.channel!r}, "
                f"{self.text(value.payload)}, {value.round_sent!r})"
            )
        memo = self._memo
        text = memo.get(id(value))
        if text is not None:
            return text
        if isinstance(value, (set, frozenset)):
            parts = ["'set'", *sorted(self.text(item) for item in value)]
        elif isinstance(value, dict):
            parts = ["'dict'", *sorted(
                f"({self.text(key)}, {self.text(item)})" for key, item in value.items()
            )]
        elif isinstance(value, (tuple, list)):
            parts = [self.text(item) for item in value]
        else:
            return repr(value)
        text = f"({parts[0]},)" if len(parts) == 1 else "(" + ", ".join(parts) + ")"
        if len(memo) >= self._MEMO_LIMIT:
            memo.clear()
        memo[id(value)] = text
        return text


def transcript_digest(execution) -> str:
    """SHA-256 over the full execution transcript in canonical form: the
    ``repr`` of ``(records, system log, node outputs, adversary output)``
    in :func:`stable_form`, hashed as it is rendered."""
    canonical = _CanonicalHash()
    canonical.write("([")
    for index, record in enumerate(execution.records):
        if index:
            canonical.write(", ")
        canonical.round(
            record.info, record.sent, record.delivered, record.broken,
            record.operational, record.unreliable_links,
        )
    canonical.write("]")
    for part in (execution.system_log, execution.node_outputs,
                 execution.adversary_output):
        canonical.write(", ")
        canonical.stream(part)
    canonical.write(")")
    return canonical.hexdigest()


def outcome_digest(execution) -> str:
    """SHA-256 over the *protocol outcomes* of an execution: node outputs,
    system log and adversary output — everything the paper's global output
    contains — but not the wire traffic.

    This is the parity primitive for the refresh wire format
    (``wire="paper" | "aggregated"``, :mod:`repro.wire`): the two
    formats send different envelopes, so :func:`transcript_digest` equality is
    impossible by construction; what must (and does) coincide is what the
    protocols *did* — keys certified, signatures produced, alerts raised,
    dealers rejected.  Two runs with identical outcome digests emulated
    each other in the Definition 5 sense for a traffic-blind environment.
    """
    canonical = _CanonicalHash()
    canonical.stream(
        (execution.node_outputs, execution.system_log, execution.adversary_output)
    )
    return canonical.hexdigest()


class RoundsDigest:
    """Incremental canonical digest over per-round traffic.

    One :meth:`update` per round hashes the same canonical tuple that
    :func:`transcript_digest` builds for a full record, so a run that
    streams this digest while keeping only compact records stays
    digest-comparable to a full-mode run (see :func:`rounds_digest`).
    The per-round canonical forms are hashed as they arrive and then
    dropped — memory use is O(1) in the number of rounds.
    """

    def __init__(self) -> None:
        self._canonical = _CanonicalHash()

    def update(self, info, sent, delivered, broken, operational, unreliable_links) -> None:
        self._canonical.round(
            info, sent, delivered, broken, operational, unreliable_links
        )

    def hexdigest(self) -> str:
        return self._canonical.hexdigest()


def rounds_digest(execution) -> str:
    """The :class:`RoundsDigest` of a full-mode execution's records.

    Equals ``execution.rounds_digest`` of a compact-records run of the
    same protocol iff the two runs delivered bit-identical round traffic —
    the parity check the E16 benchmark performs for compact mode.
    """
    digest = RoundsDigest()
    for record in execution.records:
        digest.update(
            record.info,
            record.sent,
            record.delivered,
            record.broken,
            record.operational,
            record.unreliable_links,
        )
    return digest.hexdigest()
