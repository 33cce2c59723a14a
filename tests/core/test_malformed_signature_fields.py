"""Signatures and keys whose fields are not ints are rejected, not raised on.

A signature or verification key rebuilt off the wire can carry any
object in its fields.  The UL adversary needs no break-in to send one: it
copies a genuine certified message, keeps its key and certificate, and
swaps in ``SchnorrSignature(commitment=1.5, response=0)``.  Every
verifier — ``verify``, ``batch_verify``, ``ver_cert`` and
``ver_cert_many`` — must answer False / None, and a run whose links carry
such copies must go on as if they had been dropped.
"""

import random

import pytest

from repro.core.certify import certify, ver_cert, ver_cert_many
from repro.core.disperse import DISPERSE_CHANNEL
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature, SchnorrVerifyKey
from repro.perf import clear_all_caches
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
PAIR = SCHEME.generate(random.Random(1))
GOOD = SCHEME.sign(PAIR.signing_key, b"m")

#: (field, value): "R" / "s" replace the signature's commitment / response,
#: "y" the verification key's element
MALFORMED = [
    ("R", 1.5), ("R", "x"), ("R", [1]), ("s", 0.5), ("y", 2.0), ("y", [3]),
]


def _garble(field, value, verify_key, signature):
    if field == "R":
        return verify_key, SchnorrSignature(commitment=value, response=signature.response)
    if field == "s":
        return verify_key, SchnorrSignature(commitment=signature.commitment, response=value)
    return SchnorrVerifyKey(y=value), signature


@pytest.mark.parametrize("field,value", MALFORMED)
def test_verify_rejects(field, value):
    key, signature = _garble(field, value, PAIR.verify_key, GOOD)
    assert SCHEME.verify(key, b"m", signature) is False


@pytest.mark.parametrize("field,value", MALFORMED)
def test_batch_verify_rejects(field, value):
    key, signature = _garble(field, value, PAIR.verify_key, GOOD)
    assert SCHEME.batch_verify([(PAIR.verify_key, b"m", GOOD), (key, b"m", signature)]) is False
    assert SCHEME.batch_verify([(PAIR.verify_key, b"m", GOOD)]) is True


@pytest.fixture(scope="module")
def setup():
    return build_uls_states(GROUP, SCHEME, N, T, seed=11)


@pytest.mark.parametrize("field,value", MALFORMED)
def test_ver_cert_rejects_injected_copy(setup, field, value):
    """The genuine message is accepted next to its garbled copy, by
    sequential and batched VER-CERT alike."""
    public, _, keys = setup
    genuine = certify(SCHEME, keys[0], ("body",), 0, 1, 7)
    injected = list(genuine)
    injected[6], injected[5] = _garble(field, value, genuine[6], genuine[5])
    injected = tuple(injected)
    clear_all_caches()
    assert ver_cert(SCHEME, public, 1, 0, 0, 7, injected) is None
    clear_all_caches()
    accepted = ver_cert_many(SCHEME, public, receiver=1, expected_unit=0,
                             expected_round=7, items=[(0, injected), (0, genuine)])
    assert accepted[0] is None
    assert accepted[1] == genuine


class _SignatureSwapper(Adversary):
    """Delivers everything faithfully and, next to every DISPERSE copy of
    a certified message, a copy whose signature is ``signature``."""

    def __init__(self, signature):
        self.signature = signature
        self.injected = 0

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        for envelope in traffic:
            payload = envelope.payload
            if envelope.channel != DISPERSE_CHANNEL or not (
                isinstance(payload, tuple) and len(payload) == 5
            ):
                continue
            body = payload[4]
            if not (isinstance(body, tuple) and len(body) == 8):
                continue
            garbled = body[:5] + (self.signature,) + body[6:]
            plan[envelope.receiver].append(api.forge_envelope(
                envelope.sender, envelope.receiver, envelope.channel,
                payload[:4] + (garbled,),
            ))
            self.injected += 1
        return plan


def _run(adversary):
    sched = uls_schedule()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=7)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    runner = ULRunner(programs, adversary, sched, s=T, seed=3)
    runner.add_external_input(0, sched.setup_rounds + 1, ("sign", ("doc", 1)))
    return runner.run(units=2)


def test_run_survives_garbled_signatures():
    """No honest node raises, and every node outputs exactly what it
    outputs when nothing is injected."""
    clear_all_caches()
    swapper = _SignatureSwapper(SchnorrSignature(commitment=1.5, response=0))
    garbled = _run(swapper)
    assert swapper.injected > 0
    clear_all_caches()
    assert garbled.node_outputs == _run(PassiveAdversary()).node_outputs
