"""The ideal process for distributed signatures (§3.1).

In the ideal model there are no keys and no cryptography: an
incorruptible trusted party keeps a database of signed messages.  A
message ``(m, u)`` enters the database exactly when at least ``t + 1``
signers ask to sign ``m`` during time unit ``u``; verification is a
database lookup.  Security of a real PDS scheme (Definition 12) means its
executions are indistinguishable from executions of this process — the
emulation invariants (:mod:`repro.analysis.monitor`) check its events on
real transcripts, and tests use this executable version directly.

The verifier deliberately *outputs nothing on failed verification*
(Remark 2): real verifiers cannot distinguish "never signed" from
"signed, but shown an invalid signature".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

__all__ = ["IdealSignatureProcess", "IdealRecord"]


@dataclass(frozen=True)
class IdealRecord:
    """One entry of the trusted party's database."""

    message: Hashable
    unit: int


@dataclass
class IdealSignatureProcess:
    """Executable trusted party ``T`` plus verifier ``V``.

    Drive it with :meth:`sign_request` and :meth:`verify`; read the
    outputs from :attr:`signer_outputs` / :attr:`verifier_output` (they
    follow the exact output format of §3.1).
    """

    n: int
    t: int
    signed: set[IdealRecord] = field(default_factory=set)
    requests: dict[IdealRecord, set[int]] = field(default_factory=dict)
    _notified: dict[IdealRecord, set[int]] = field(default_factory=dict)
    signer_outputs: dict[int, list[Any]] = field(default_factory=dict)
    verifier_output: list[Any] = field(default_factory=list)
    broken: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not (0 <= self.t < self.n):
            raise ValueError(f"need 0 <= t < n, got t={self.t}, n={self.n}")
        for i in range(self.n):
            self.signer_outputs.setdefault(i, [])

    # -- adversary-facing interface (steps 2-5 of §3.1) ---------------------

    def sign_request(self, signer: int, message: Hashable, unit: int) -> bool:
        """Step 2-3: signer ``signer`` is asked to sign ``message`` at time
        unit ``unit``.  Returns True if the message is (now) signed."""
        if not (0 <= signer < self.n):
            raise ValueError(f"unknown signer {signer}")
        record = IdealRecord(message=message, unit=unit)
        if signer not in self.broken:
            self.signer_outputs[signer].append(("asked-to-sign", message, unit))
        self.requests.setdefault(record, set()).add(signer)
        if len(self.requests[record]) >= self.t + 1 and record not in self.signed:
            self.signed.add(record)
        if record in self.signed:
            notified = self._notified.setdefault(record, set())
            for requester in self.requests[record]:
                if requester not in self.broken and requester not in notified:
                    notified.add(requester)
                    self.signer_outputs[requester].append(("signed", message, unit))
            return True
        return False

    def break_into(self, signer: int) -> None:
        """Step 4: the forger compromises a signer."""
        if signer not in self.broken:
            self.broken.add(signer)
            self.signer_outputs[signer].append(("compromised",))

    def recover(self, signer: int) -> None:
        if signer in self.broken:
            self.broken.discard(signer)
            self.signer_outputs[signer].append(("recovered",))

    def verify(self, message: Hashable, unit: int) -> bool:
        """Step 5: query the verifier.  Only successful verifications are
        recorded in the verifier's output (Remark 2)."""
        record = IdealRecord(message=message, unit=unit)
        if record in self.signed:
            self.verifier_output.append(("verified", message, unit))
            return True
        return False

    # -- introspection ----------------------------------------------------

    def is_signed(self, message: Hashable, unit: int) -> bool:
        return IdealRecord(message=message, unit=unit) in self.signed

    def request_count(self, message: Hashable, unit: int) -> int:
        return len(self.requests.get(IdealRecord(message=message, unit=unit), set()))
