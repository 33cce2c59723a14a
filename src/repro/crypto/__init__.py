"""From-scratch cryptographic substrate for the proactive-auth library.

Sub-modules:

- :mod:`repro.crypto.numbers` — primality, modular arithmetic.
- :mod:`repro.crypto.hashing` — domain-separated hashing, PRF.
- :mod:`repro.crypto.field` / :mod:`repro.crypto.group` — ``Z_q`` and
  Schnorr groups.
- :mod:`repro.crypto.signature` — the abstract ``CS = (CGen, CSign, CVer)``
  interface, with implementations in :mod:`~repro.crypto.schnorr`
  (discrete log), :mod:`~repro.crypto.rsa` (factoring),
  :mod:`~repro.crypto.hash_sig` (one-way functions only) and the
  deliberately broken :mod:`~repro.crypto.toy` for negative tests.
- :mod:`repro.crypto.shamir` / :mod:`repro.crypto.feldman` — (verifiable)
  secret sharing, the substrate of the PDS schemes.
"""

from repro.crypto.feldman import FeldmanCommitment, FeldmanDealer, FeldmanDealing
from repro.crypto.field import PrimeField, Polynomial
from repro.crypto.group import SchnorrGroup, named_group
from repro.crypto.hash_sig import MerkleSignatureScheme
from repro.crypto.lamport import LamportScheme
from repro.crypto.rsa import RsaFdhScheme
from repro.crypto.schnorr import SchnorrScheme
from repro.crypto.shamir import Share, ShamirDealer, reconstruct_secret
from repro.crypto.signature import KeyPair, SignatureError, SignatureScheme

__all__ = [
    "FeldmanCommitment",
    "FeldmanDealer",
    "FeldmanDealing",
    "PrimeField",
    "Polynomial",
    "SchnorrGroup",
    "named_group",
    "MerkleSignatureScheme",
    "LamportScheme",
    "RsaFdhScheme",
    "SchnorrScheme",
    "Share",
    "ShamirDealer",
    "reconstruct_secret",
    "KeyPair",
    "SignatureError",
    "SignatureScheme",
]
