"""Proactive distributed signatures (paper §3 + Theorem 13).

- :mod:`repro.pds.ideal` — the ideal signing process (§3.1), used as the
  security reference point.
- :mod:`repro.pds.keys` — key material, per-node state, the set-up
  ``Gen``.
- :mod:`repro.pds.threshold_schnorr` — the signing protocol ``Sign`` and
  public verifier ``Ver`` (threshold Schnorr over Feldman-verified
  Shamir sharings).
- :mod:`repro.pds.refresh` — the refresh protocol ``Rfr`` (share renewal,
  commitment sync, share recovery).
- :mod:`repro.pds.dealing` — the joint-Feldman dealing round (deal, ack,
  reveal, QUAL) that signing, renewal and the DKG share.
- :mod:`repro.pds.dkg` — the distributed ``UGen`` (joint-Feldman DKG plus
  threshold-certified unit-0 keys).
- :mod:`repro.pds.harness` — an AL-model node program wiring the above to
  the §3.2 operation conventions.
- :mod:`repro.pds.transport` — the send abstraction that lets the same
  protocols run over AL links or over AUTH-SEND (the §4 transformation).

Every body these protocols send has its field types in one table of
:mod:`repro.wire`, checked once where the body is read.
"""

from repro.pds.dkg import DkgUGenProgram, run_distributed_ugen
from repro.pds.harness import PdsNodeProgram, required_refresh_rounds
from repro.pds.ideal import IdealRecord, IdealSignatureProcess
from repro.pds.keys import PdsNodeState, PdsPublic, deal_initial_states
from repro.pds.refresh import RefreshService
from repro.pds.threshold_schnorr import (
    ThresholdSigner,
    pds_message_bytes,
    verify_pds_signature,
)
from repro.pds.transport import Accepted, DirectTransport, Transport

__all__ = [
    "DkgUGenProgram",
    "run_distributed_ugen",
    "PdsNodeProgram",
    "required_refresh_rounds",
    "IdealRecord",
    "IdealSignatureProcess",
    "PdsNodeState",
    "PdsPublic",
    "deal_initial_states",
    "RefreshService",
    "ThresholdSigner",
    "pds_message_bytes",
    "verify_pds_signature",
    "Accepted",
    "DirectTransport",
    "Transport",
]
