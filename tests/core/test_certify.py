"""Tests for CERTIFY / VER-CERT (Fig. 3)."""

import random

import pytest

from repro.core import auth_send
from repro.core.auth_send import AuthSendTransport
from repro.core.authenticator import compile_protocol
from repro.core.certify import CertifiedMessage, certify, ver_cert, verify_certified_body
from repro.core.disperse import DISPERSE_CHANNEL
from repro.core.keystore import KeyStore, LocalKeys, certificate_assertion
from repro.core.uls import UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.hashing import encode_for_hash
from repro.crypto.schnorr import SchnorrScheme, SchnorrSignature
from repro.perf import cache, clear_all_caches
from repro.perf.cache import canonical_body_key, canonical_probe
from repro.sim.adversary_api import PassiveAdversary
from repro.sim.clock import Phase
from repro.sim.node import NodeProgram
from repro.sim.runner import ULRunner

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2


@pytest.fixture(scope="module")
def setup():
    public, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=11)
    return public, states, keys


def make_msg(setup, message=("hi",), source=0, destination=1, round_w=7):
    _, _, keys = setup
    return certify(SCHEME, keys[source], message, source, destination, round_w)


def test_round_trip(setup):
    public, _, _ = setup
    msg = make_msg(setup)
    accepted = ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                        expected_unit=0, expected_round=7, raw=tuple(msg))
    assert accepted is not None
    assert accepted.message == ("hi",)
    assert accepted.source == 0


def test_reject_wrong_destination(setup):
    public, _, _ = setup
    msg = make_msg(setup, destination=1)
    assert ver_cert(SCHEME, public, receiver=2, alleged_source=0,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_reject_wrong_alleged_source(setup):
    public, _, _ = setup
    msg = make_msg(setup, source=0)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=3,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_reject_wrong_round_replay(setup):
    """A replayed message fails the w check (Definition 4's replay
    exclusion is enforced here at the protocol level)."""
    public, _, _ = setup
    msg = make_msg(setup, round_w=7)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=9, raw=tuple(msg)) is None


def test_reject_wrong_unit(setup):
    public, _, _ = setup
    msg = make_msg(setup)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=1, expected_round=7, raw=tuple(msg)) is None


def test_reject_tampered_message(setup):
    public, _, _ = setup
    msg = list(make_msg(setup))
    msg[0] = ("tampered",)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_reject_swapped_certificate(setup):
    """Node 3's certificate does not certify node 0's key."""
    public, _, keys = setup
    msg = list(make_msg(setup))
    msg[7] = keys[3].certificate
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_reject_foreign_key_with_own_signature(setup):
    """Adversary signs with its own fresh key and attaches it: the
    certificate check fails (the key is not certified for the source)."""
    public, _, keys = setup
    rng = random.Random(5)
    adversary_pair = SCHEME.generate(rng)
    fake_keys = LocalKeys(unit=0, keypair=adversary_pair,
                          certificate=keys[0].certificate)
    msg = certify(SCHEME, fake_keys, ("forged",), 0, 1, 7)
    assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                    expected_unit=0, expected_round=7, raw=tuple(msg)) is None


def test_phi_keys_cannot_certify():
    empty = LocalKeys(unit=3)
    assert certify(SCHEME, empty, ("m",), 0, 1, 5) is None


def test_malformed_raw_rejected(setup):
    public, _, _ = setup
    for raw in (None, "junk", (1, 2, 3), tuple(range(8))):
        assert ver_cert(SCHEME, public, receiver=1, alleged_source=0,
                        expected_unit=0, expected_round=7, raw=raw) is None


def test_verify_certified_body_ignores_destination(setup):
    """The PA step-4 variant accepts a message addressed to someone else,
    but still pins author authenticity and time."""
    public, _, _ = setup
    msg = make_msg(setup, destination=3)
    accepted = verify_certified_body(SCHEME, public, expected_unit=0,
                                     expected_round=7, raw=tuple(msg))
    assert accepted is not None
    assert accepted.destination == 3
    # time still pinned
    assert verify_certified_body(SCHEME, public, expected_unit=0,
                                 expected_round=8, raw=tuple(msg)) is None


def test_certified_messages_travel_as_themselves(monkeypatch, wire):
    """AUTH-SEND floods the object CERTIFY returned, and every acceptance
    hands on that very object: no copy is made and none is re-parsed."""
    issued = {}

    def recording_certify(*args, **kwargs):
        msg = certify(*args, **kwargs)
        if msg is not None:
            issued[id(msg)] = msg
        return msg

    accepted = []
    begin_round = AuthSendTransport.begin_round

    def recording_begin_round(self, ctx, inbox):
        begin_round(self, ctx, inbox)
        accepted.extend(self.accepted_view())

    monkeypatch.setattr(auth_send, "certify", recording_certify)
    monkeypatch.setattr(AuthSendTransport, "begin_round", recording_begin_round)
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=7)
    programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    execution = ULRunner(programs, PassiveAdversary(), uls_schedule(), s=T, seed=3).run(units=2)
    bodies = [
        envelope.payload[-1]
        for record in execution.records
        for envelope in record.sent
        if envelope.channel == DISPERSE_CHANNEL and envelope.payload[1] == "auth"
    ]
    assert bodies and all(type(body) is CertifiedMessage for body in bodies)
    assert accepted and all(issued.get(id(a.raw)) is a.raw for a in accepted)


class _Ping(NodeProgram):
    """π for Λ: every normal round, each node pings its successor."""

    def step(self, ctx, inbox):
        if ctx.info.phase is Phase.NORMAL:
            ctx.send((self.node_id + 1) % self.n, "ping", ("ping", ctx.info.round))


def _run_honest(network, wire):
    clear_all_caches()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=7)
    if network == "authenticator":
        programs = compile_protocol([_Ping() for _ in range(N)], states, SCHEME, keys,
                                    wire=wire)
    else:
        programs = [UlsProgram(states[i], SCHEME, keys[i], wire=wire) for i in range(N)]
    sched = uls_schedule()
    runner = ULRunner(programs, PassiveAdversary(), sched, s=T, seed=3)
    runner.add_external_input(0, sched.setup_rounds + 1, ("sign", ("doc", 1)))
    return runner.run(units=2)


@pytest.mark.parametrize("network", ["uls", "authenticator"])
def test_wire_key_is_the_canonical_encoding(monkeypatch, network, wire):
    """CERTIFY seeds the key DISPERSE and PARTIAL-AGREEMENT recognise a
    message by, and that key is the message's own canonical encoding."""
    seeded = []

    def recording_certify(*args, **kwargs):
        msg = certify(*args, **kwargs)
        if msg is not None:
            entries, _ = canonical_probe()
            entry = entries.get(id(msg))
            seeded.append((msg, entry[1] if entry is not None and entry[0] is msg else None))
        return msg

    monkeypatch.setattr(auth_send, "certify", recording_certify)
    _run_honest(network, wire)
    assert seeded
    for msg, key in seeded:
        assert type(key) is bytes
        assert key == encode_for_hash(tuple(msg)) == canonical_body_key(msg)


def test_honest_certified_messages_are_never_encoded_for_dedup(monkeypatch, wire):
    """No Schnorr-keyed certified message of an honest run reaches the
    encode-or-repr fallback of the canonical-key memo: each one's key was
    seeded when it was certified."""
    calls = {"certified": 0, "all": 0}
    encode_or_repr = cache._encode_or_repr

    def counting(body):
        calls["all"] += 1
        if isinstance(body, CertifiedMessage) and type(body.signature) is SchnorrSignature:
            calls["certified"] += 1
        return encode_or_repr(body)

    monkeypatch.setattr(cache, "_encode_or_repr", counting)
    _run_honest("uls", wire)
    assert calls["all"] > 0
    assert calls["certified"] == 0


def test_certificate_assertion_format():
    assertion = certificate_assertion(2, 5, ("schnorr", 1, 2))
    assert assertion == ("cert", 2, 5, ("schnorr", 1, 2))


def test_keystore_lifecycle():
    rng = random.Random(1)
    store = KeyStore(SCHEME)
    assert store.unit == 0
    assert not store.can_sign()
    vk = store.generate_pending(1, rng)
    assert store.pending_key_repr() == SCHEME.key_repr(vk)
    # without a certificate the switch fails and keys become phi
    assert not store.install_pending(None)
    assert store.unit == 1
    assert not store.can_sign()
    assert store.history == [(1, "failed")]
    # next unit succeeds
    store.generate_pending(2, rng)
    assert store.install_pending("some-cert")
    assert store.unit == 2
    assert store.can_sign()
    assert store.history == [(1, "failed"), (2, "ok")]


def test_keystore_install_without_pending():
    store = KeyStore(SCHEME)
    assert not store.install_pending("cert")
    assert store.history == [(1, "failed")]
