"""Theorem 14 is generic in the centralized scheme CS: run the identical
ULS protocol over RSA-FDH and over hash-based Merkle–Lamport signatures.

These runs exercise exactly the same code paths as the Schnorr-based
suite; what they add is evidence that nothing silently depends on the
default scheme (key encodings, certificate assertions and signature
objects all flow through the scheme abstraction), and — for the stateful
hash-based scheme — that per-unit key rotation keeps one-time-key usage
within capacity.
"""

import pytest

from repro.core.uls import UlsProgram, build_uls_states, uls_schedule, verify_user_signature
from repro.crypto.group import named_group
from repro.crypto.hash_sig import MerkleSignatureScheme
from repro.crypto.rsa import RsaFdhScheme
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
N, T = 5, 2
SCHED = uls_schedule()


def run_with_scheme(scheme, units=2, seed=5, wire="paper"):
    public, states, keys = build_uls_states(GROUP, scheme, N, T, seed=seed)
    programs = [UlsProgram(states[i], scheme, keys[i], wire=wire) for i in range(N)]
    runner = ULRunner(programs, PassiveAdversary(), SCHED, s=T, seed=seed)
    r1 = SCHED.first_normal_round(1)
    for i in range(N):
        runner.add_external_input(i, r1, ("sign", "cross-scheme"))
    execution = runner.run(units=units)
    return public, programs, execution


@pytest.mark.slow
def test_uls_over_rsa_fdh(wire):
    scheme = RsaFdhScheme(modulus_bits=256)
    public, programs, execution = run_with_scheme(scheme, wire=wire)
    for program in programs:
        assert program.core.alert_units == []
        assert program.keystore.history == [(1, "ok")]
        assert ("signed", "cross-scheme", 1) in execution.outputs_of(program.state.node_id)
    signature = programs[0].signatures[("cross-scheme", 1)]
    assert verify_user_signature(public, "cross-scheme", 1, signature)


@pytest.mark.slow
def test_uls_over_hash_based_signatures(wire):
    """The from-one-way-functions-only instantiation: stateful one-time
    keys, rotated per unit before exhaustion."""
    scheme = MerkleSignatureScheme(capacity=128)
    public, programs, execution = run_with_scheme(scheme, wire=wire)
    for program in programs:
        assert program.core.alert_units == []
        assert program.keystore.history == [(1, "ok")]
        # one-time keys stayed within capacity thanks to the rotation
        signing_key = program.keystore.current.keypair.signing_key
        assert signing_key.next_leaf <= 128
        assert ("signed", "cross-scheme", 1) in execution.outputs_of(program.state.node_id)
    signature = programs[0].signatures[("cross-scheme", 1)]
    assert verify_user_signature(public, "cross-scheme", 1, signature)
