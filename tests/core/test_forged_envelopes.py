"""Unauthenticated garbage on the links never crashes an honest node.

The UL adversary may inject anything on any link (§2.2), without breaking
into a node.  Three places parse that input before any authentication:
DISPERSE's relay loop, PARTIAL-AGREEMENT step 3 (re-dispersed certified
messages) and the cleartext key announcement.  Each must drop what is
not an honest shape, so a run with one forged envelope has the same
outcome as the passive run, and a run flooded with random garbage still
completes.

A forged copy of a genuine certified message, in another shape, must not
stand in for it either: DISPERSE keeps one copy per key, so a copy that
shared the genuine message's key would shadow it (Lemma 15).

A broken node can also certify garbage under its own keys (§4.2), and
that passes VER-CERT.  The handlers behind AUTH-SEND must drop it too: a
run with one such body has the outcome of the same break-in without it.
"""

import random

import pytest

from repro.analysis.digest import outcome_digest
from repro.core.authenticator import compile_protocol
from repro.core.certify import CertifiedMessage, certify, ver_cert
from repro.core.disperse import DISPERSE_CHANNEL
from repro.core.sessions import SESSION_CHANNEL
from repro.core.uls import NEWKEY_CHANNEL, UlsProgram, build_uls_states, uls_schedule
from repro.crypto.group import named_group
from repro.crypto.schnorr import SchnorrScheme
from repro.perf import clear_all_caches
from repro.sim.adversary_api import Adversary, PassiveAdversary, faithful_delivery
from repro.sim.clock import Phase
from repro.sim.node import NodeProgram
from repro.sim.runner import ULRunner
from repro.wire import BROADCAST

GROUP = named_group("toy64")
SCHEME = SchnorrScheme(GROUP)
N, T = 5, 2
VICTIM = 1
BODY = ("x",)

#: name -> (channel, payload for the unit being refreshed); each one is
#: malformed where a node parses it before any authentication
FORGED = {
    "fwd-dst-out-of-range": (DISPERSE_CHANNEL, lambda u: ("fwd", "auth", 0, 99, BODY)),
    "fwd-unhashable-tag": (DISPERSE_CHANNEL, lambda u: ("fwd", ["auth"], 0, 2, BODY)),
    "fwding-unhashable-tag": (DISPERSE_CHANNEL, lambda u: ("fwding", ["auth"], 0, 1, BODY)),
    "bcst-unhashable-tag": (DISPERSE_CHANNEL, lambda u: ("bcst", ["auth"], 0, BODY)),
    "fwd-broadcast-unhashable-tag": (
        DISPERSE_CHANNEL, lambda u: ("fwd", ["auth"], 0, BROADCAST, BODY)),
    "fwding-broadcast-unhashable-tag": (
        DISPERSE_CHANNEL, lambda u: ("fwding", ["auth"], 0, BROADCAST, BODY)),
    "pa3-unhashable-session": (
        DISPERSE_CHANNEL,
        lambda u: ("fwding", "pa3", 0, 1, (("pa1", [1], 5), 0, 1, u, 3, None, None, None)),
    ),
    "newkey-unencodable": (NEWKEY_CHANNEL, lambda u: ("newkey", u, ("schnorr", 1.5))),
    "cert-deliver-wrong-arity": (
        DISPERSE_CHANNEL, lambda u: ("fwding", "cert", 0, 1, ("cert-deliver", b"m"))),
    "pa3b-pack-not-a-tuple": (
        DISPERSE_CHANNEL,
        lambda u: ("fwding", "pa3", 0, 1,
                   ("pa3b", [(("pa1", ("pa", u, 0), 5), 0, 1, u, 3, None, None, None)])),
    ),
    # five fields, with the source, destination, unit and round node 1's
    # AUTH-SEND expects when it reads them: the keys still in force, sent
    # two rounds before
    "certified-message-wrong-arity": (
        DISPERSE_CHANNEL,
        lambda u: ("fwding", "auth", 0, 1, CertifiedMessage(
            (("app", 1), 0, 1, u - 1, uls_schedule().refresh_start(u) - 1))),
    ),
}


def _announced_unit(traffic):
    """The unit of the key announcements in this round's traffic, if any."""
    for envelope in traffic:
        payload = envelope.payload
        if envelope.channel == NEWKEY_CHANNEL and isinstance(payload, tuple):
            return payload[1]
    return None


class _ForgeOnce(Adversary):
    """Delivers faithfully and, in the round the nodes announce their
    fresh keys, puts one forged envelope (claimed sender 0) first in
    node 1's inbox, ahead of node 0's genuine announcement (the first
    announcement per sender counts)."""

    def __init__(self, channel, make_payload):
        self.channel = channel
        self.make_payload = make_payload
        self.injected = 0

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        unit = _announced_unit(traffic)
        if unit is not None and not self.injected:
            plan[VICTIM].insert(0, api.forge_envelope(
                0, VICTIM, self.channel, self.make_payload(unit)))
            self.injected += 1
        return plan


class _ReplaceAnnouncements(Adversary):
    """Swaps node 0's key announcement to every node for one carrying
    ``key``, or drops it when ``key`` is None."""

    def __init__(self, key=None):
        self.key = key
        self.replaced = 0

    def deliver(self, api, info, traffic):
        plan = {i: [] for i in range(api.n)}
        for envelope in traffic:
            if envelope.channel == NEWKEY_CHANNEL and envelope.sender == 0:
                self.replaced += 1
                if self.key is None:
                    continue
                envelope = api.forge_envelope(
                    0, envelope.receiver, NEWKEY_CHANNEL,
                    ("newkey", envelope.payload[1], self.key))
            plan[envelope.receiver].append(envelope)
        return plan


def _garbage(rng):
    """One value of a type no honest field ever has, or an honest-looking
    one out of place."""
    return rng.choice([
        [1], ["auth"], {"k": 1}, 1.5, None, -1, 99, "auth", "pa3", 0, 1, (), (1, [2]),
    ])


class _RandomInjector(Adversary):
    """Delivers faithfully plus, every round, a few random malformed
    DISPERSE, PA step-3 and key-announcement envelopes to random nodes."""

    PER_ROUND = 3

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.injected = 0

    def _payload(self, unit):
        rng = self.rng
        shape = rng.randrange(4)
        if shape == 0:
            kind = rng.choice(["fwd", "fwding"])
            return DISPERSE_CHANNEL, (kind, _garbage(rng), _garbage(rng), _garbage(rng), BODY)
        if shape == 1:
            kind = rng.choice(["fwd", "fwding"])
            return DISPERSE_CHANNEL, (kind, _garbage(rng), _garbage(rng), BROADCAST, BODY)
        if shape == 2:
            inner = ("pa1", _garbage(rng), _garbage(rng))
            raw = (inner, 0, 1, unit, rng.randrange(40), None, None, None)
            return DISPERSE_CHANNEL, ("fwding", "pa3", 0, rng.randrange(N), raw)
        return NEWKEY_CHANNEL, ("newkey", unit, ("schnorr", _garbage(rng)))

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        for _ in range(self.PER_ROUND):
            receiver = self.rng.randrange(api.n)
            sender = (receiver + 1 + self.rng.randrange(api.n - 1)) % api.n
            channel, payload = self._payload(info.time_unit)
            plan[receiver].insert(0, api.forge_envelope(sender, receiver, channel, payload))
            self.injected += 1
        return plan


def _run(adversary):
    clear_all_caches()
    sched = uls_schedule()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=7)
    programs = [UlsProgram(states[i], SCHEME, keys[i]) for i in range(N)]
    runner = ULRunner(programs, adversary, sched, s=T, seed=3)
    runner.add_external_input(0, sched.setup_rounds + 1, ("sign", ("doc", 1)))
    return runner.run(units=2)


@pytest.fixture(scope="module")
def passive_digest():
    return outcome_digest(_run(PassiveAdversary()))


@pytest.mark.parametrize("name", sorted(FORGED))
def test_one_forged_envelope_changes_nothing(passive_digest, name):
    channel, make_payload = FORGED[name]
    forger = _ForgeOnce(channel, make_payload)
    execution = _run(forger)
    assert forger.injected == 1
    assert outcome_digest(execution) == passive_digest


def test_forged_mac_of_the_wrong_arity_changes_nothing():
    """The session layer's MAC'd messages ride raw links.  A ``mac`` of
    the wrong arity is dropped, uncounted: every node receives and
    rejects what it does in the passive run."""
    from tests.core.test_sessions import build, run as run_sessions

    def outcome(adversary):
        clear_all_caches()
        _, programs = build()
        execution = run_sessions(programs, adversary)
        return (outcome_digest(execution), [program.received for program in programs],
                [program.sessions.rejected_count for program in programs])

    forger = _ForgeOnce(SESSION_CHANNEL, lambda u: ("mac", u, 0))
    assert outcome(forger) == outcome(PassiveAdversary())
    assert forger.injected == 1


def test_forged_mac_of_an_unencodable_body_is_rejected():
    """A ``mac`` with the unit and round the receiver expects, whose body
    the MAC cannot encode, is rejected and counted: every node receives
    what it does in the passive run, and node 1 rejects one message
    more."""
    from tests.core.test_sessions import build, run as run_sessions

    def outcome(adversary):
        clear_all_caches()
        _, programs = build()
        execution = run_sessions(programs, adversary)
        return (outcome_digest(execution), [program.received for program in programs],
                [program.sessions.rejected_count for program in programs])

    # read one round after the announcements, under the keys still in force
    forger = _ForgeOnce(
        SESSION_CHANNEL, lambda u: ("mac", u - 1, uls_schedule().refresh_start(u), 1.5, b""))
    digest, received, rejected = outcome(forger)
    passive_digest, passive_received, passive_rejected = outcome(PassiveAdversary())
    assert forger.injected == 1
    assert (digest, received) == (passive_digest, passive_received)
    assert rejected == [count + (node == VICTIM) for node, count in enumerate(passive_rejected)]


def test_key_that_is_no_key_repr_counts_as_dropped():
    """An encodable key that is not a tuple, announced to every node in
    node 0's name, would agree at a majority and reach the certificate
    request, which builds a tuple from the key.  It must count as a
    dropped announcement."""
    replacer = _ReplaceAnnouncements(5)
    replaced = _run(replacer)
    assert replacer.replaced == N - 1
    assert outcome_digest(replaced) == outcome_digest(_run(_ReplaceAnnouncements()))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_injection_completes(seed):
    injector = _RandomInjector(seed)
    _run(injector)
    assert injector.injected > 0


# ------------------------------------------ copies of another shape

APP_PAYLOAD = ("ping", 7)

#: name -> the forged copy of node 0's genuine certified message ``msg``
SHADOWS = {
    "message-as-list": lambda msg: (list(msg.message),) + tuple(msg[1:]),
    "plain-8-tuple": lambda msg: tuple(msg),
    "signature-as-tuple": lambda msg: tuple(msg[:5])
    + ((msg.signature.commitment, msg.signature.response),) + tuple(msg[6:]),
}


class _SendOnce(NodeProgram):
    """π for Λ: node 0 sends node 1 one app message, in the first normal
    round."""

    def __init__(self):
        super().__init__()
        self.sent = False

    def step(self, ctx, inbox):
        if self.node_id == 0 and not self.sent and ctx.info.phase is Phase.NORMAL:
            ctx.send(1, "app", APP_PAYLOAD)
            self.sent = True


class _ShadowOnce(Adversary):
    """Delivers faithfully.  In the round node 0 floods its app message
    to node 1, puts one ``("fwd", "auth", 0, 1, make(msg))`` first in
    node 1's inbox, ahead of every genuine copy."""

    def __init__(self, make):
        self.make = make
        self.injected = 0

    def deliver(self, api, info, traffic):
        plan = faithful_delivery(traffic, api.n)
        for envelope in traffic:
            payload = envelope.payload
            if self.injected or envelope.channel != DISPERSE_CHANNEL:
                continue
            if payload[:4] == ("fwd", "auth", 0, 1) and payload[4].message[0] == "app":
                plan[VICTIM].insert(0, api.forge_envelope(
                    0, VICTIM, DISPERSE_CHANNEL, ("fwd", "auth", 0, 1, self.make(payload[4]))))
                self.injected += 1
        return plan


def _app_received(adversary):
    clear_all_caches()
    _, states, keys = build_uls_states(GROUP, SCHEME, N, T, seed=7)
    programs = compile_protocol([_SendOnce() for _ in range(N)], states, SCHEME, keys)
    execution = ULRunner(programs, adversary, uls_schedule(), s=T, seed=3).run(units=1)
    return [entry for entry in execution.outputs_of(VICTIM)
            if isinstance(entry, tuple) and entry[0] == "app-recv"]


@pytest.mark.parametrize("name", sorted(SHADOWS))
def test_copy_of_another_shape_cannot_shadow_the_message(name):
    """Node 1 delivers node 0's app message whatever copy arrives first.
    A list and a tuple, or a Schnorr record and the tuple of its fields,
    encode apart; if they did not, the forged copy would take the genuine
    message's DISPERSE key and the genuine copies would be dropped as
    duplicates."""
    assert _app_received(PassiveAdversary()) == [("app-recv", 0, "app", APP_PAYLOAD)]
    shadow = _ShadowOnce(SHADOWS[name])
    assert _app_received(shadow) == [("app-recv", 0, "app", APP_PAYLOAD)]
    assert shadow.injected == 1


# ------------------------------------------- certified by a broken node

#: bodies node 4 certifies under its own keys; each is malformed where an
#: honest node parses it after VER-CERT
CERTIFIED = {
    "rf-sync-int-commitment": ("rf-sync", 1, 5),
    "ts-ack-unhashable-session": ("ts-ack", [1], ()),
    "pa1-unhashable-session": ("pa1", [1], ("schnorr", 3)),
    "app-wrong-arity": ("app", ("chat", 1), 2),
}


def _starts_part2(traffic):
    """Whether an honest rf-sync, Part II's first step, is on the wire."""
    return any(
        isinstance(envelope.payload[-1], CertifiedMessage)
        and envelope.payload[-1].message[:1] == ("rf-sync",)
        for envelope in traffic
        if envelope.channel == DISPERSE_CHANNEL
    )


class _CertifiedByBrokenNode(Adversary):
    """Delivers faithfully.  In the round Part II of unit 1's refresh
    starts, breaks into node 4, which has installed its unit-1 keys by
    then, and keeps it.  In that round node 4 AUTH-SENDs ``body`` to node
    0: certified under its own current keys and flooded to every relay.
    Without ``body`` it sends nothing (the reference run)."""

    BROKEN = 4
    TARGET = 0

    def __init__(self, body=None):
        self.body = body
        self.broken = False
        self.sent = 0
        self.passes_ver_cert = False

    def on_round(self, api, info, traffic):
        if self.broken or not _starts_part2(traffic):
            return
        self.broken = True
        program = api.break_into(self.BROKEN)
        if self.body is None:
            return
        msg = certify(SCHEME, program.keystore.current, self.body,
                      self.BROKEN, self.TARGET, info.round)
        self.passes_ver_cert = ver_cert(
            SCHEME, program.state.public, self.TARGET, self.BROKEN,
            expected_unit=info.time_unit, expected_round=info.round, raw=msg,
        ) is not None
        for relay in range(api.n):
            if relay != self.BROKEN:
                api.send_as(self.BROKEN, relay, DISPERSE_CHANNEL,
                            ("fwd", "auth", self.BROKEN, self.TARGET, msg))
        self.sent += 1


@pytest.fixture(scope="module")
def withheld_digest():
    """The same break-in, node 4 sending nothing."""
    adversary = _CertifiedByBrokenNode()
    digest = outcome_digest(_run(adversary))
    assert adversary.broken
    return digest


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certified_malformed_body_changes_nothing(withheld_digest, name):
    adversary = _CertifiedByBrokenNode(CERTIFIED[name])
    execution = _run(adversary)
    assert adversary.sent == 1 and adversary.passes_ver_cert
    assert outcome_digest(execution) == withheld_digest
